package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"

	"relalg/internal/value"
)

// Client is a minimal protocol client: dial, send statements, collect
// replies. It is not safe for concurrent use — one goroutine per Client,
// which mirrors one session per connection on the server.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
}

// Reply is one statement's full response.
type Reply struct {
	// Schema holds one "name<TAB>TYPE" line per column; empty for
	// statements with no result set.
	Schema []string
	// Rows are the decoded result rows.
	Rows []value.Row
	// RowPayloads are the raw row-frame payloads exactly as received; two
	// replies carrying the same relation have identical payloads, which the
	// equivalence tests compare directly.
	RowPayloads [][]byte
	// Stats is the stats-frame text, if any.
	Stats string
	// Done is the done-frame payload ("ok", "12 rows", ...).
	Done string
	// ErrMsg is the error-frame text; empty on success.
	ErrMsg string
}

// Err converts an error reply into a Go error (nil on success).
func (r *Reply) Err() error {
	if r.ErrMsg == "" {
		return nil
	}
	return errors.New(r.ErrMsg)
}

// Dial connects to a server and consumes the hello frame.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn)}
	typ, payload, err := ReadFrame(c.br)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("serve: reading hello: %w", err)
	}
	if typ != FrameHello {
		_ = conn.Close()
		return nil, fmt.Errorf("serve: expected hello frame, got %q", typ)
	}
	_ = payload // the banner is informational
	return c, nil
}

// Do sends one statement and reads the complete reply. A transport error is
// returned as a Go error; a statement error arrives inside the Reply.
func (c *Client) Do(sql string) (*Reply, error) {
	if err := WriteFrame(c.conn, FrameQuery, []byte(sql)); err != nil {
		return nil, err
	}
	reply := &Reply{}
	for {
		typ, payload, err := ReadFrame(c.br)
		if err != nil {
			return nil, err
		}
		switch typ {
		case FrameSchema:
			reply.Schema = strings.Split(string(payload), "\n")
		case FrameRows:
			reply.RowPayloads = append(reply.RowPayloads, payload)
			rows, err := value.DecodeRows(payload)
			if err != nil {
				return nil, fmt.Errorf("serve: decoding row frame: %w", err)
			}
			reply.Rows = append(reply.Rows, rows...)
		case FrameStats:
			reply.Stats = string(payload)
		case FrameError:
			reply.ErrMsg = string(payload)
		case FrameDone:
			reply.Done = string(payload)
			return reply, nil
		default:
			return nil, fmt.Errorf("serve: unexpected frame type %q", typ)
		}
	}
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }
