package serve

import (
	"bufio"
	"fmt"
	"net"
	"strings"

	"relalg/internal/core"
	"relalg/internal/plan"
	"relalg/internal/sqlparse"
	"relalg/internal/value"
)

// statsCommand is the protocol's one meta-command: a client sending it as a
// statement gets the server-wide and per-session counters as a stats frame
// instead of SQL execution.
const statsCommand = `\stats`

// session is one client connection. Its goroutine is the only writer to the
// connection and to its own counters; everything shared lives on the server.
type session struct {
	srv   *Server
	conn  net.Conn
	stats sessionStats
}

// run drives the connection until EOF, protocol error, or server shutdown.
func (s *session) run() {
	defer s.srv.removeSession(s)
	defer func() { _ = s.conn.Close() }()
	br := bufio.NewReader(s.conn)
	bw := bufio.NewWriter(s.conn)
	if err := WriteFrame(bw, FrameHello, []byte(Banner)); err != nil || bw.Flush() != nil {
		return
	}
	for {
		if s.srv.closing.Load() {
			return
		}
		typ, payload, err := ReadFrame(br)
		if err != nil {
			// Clean EOF, server shutdown (read deadline), or a broken
			// stream: in every case the session is over. A statement that
			// was mid-execution has already written its full response.
			return
		}
		if typ != FrameQuery {
			if !s.reply(bw, frameSeq{{FrameError, []byte(fmt.Sprintf("serve: unexpected frame type %q", typ))}, {FrameDone, nil}}) {
				return
			}
			continue
		}
		if !s.reply(bw, s.handle(string(payload))) {
			return
		}
	}
}

// frame is one wire frame awaiting write.
type frame struct {
	typ     byte
	payload []byte
}

// frameSeq is one response: the frames are written and flushed together.
type frameSeq []frame

// reply writes one response; false means the connection is unusable.
func (s *session) reply(bw *bufio.Writer, frames frameSeq) bool {
	for _, f := range frames {
		if err := WriteFrame(bw, f.typ, f.payload); err != nil {
			return false
		}
	}
	return bw.Flush() == nil
}

// handle executes one statement and renders its response frames.
func (s *session) handle(sql string) frameSeq {
	s.stats.queries++
	s.srv.stats.queriesServed.Add(1)
	if strings.TrimSpace(sql) == statsCommand {
		text := s.srv.Stats().String() + "\n" + s.stats.String()
		return frameSeq{{FrameStats, []byte(text)}, {FrameDone, nil}}
	}
	res, err := s.execute(sql)
	if err != nil {
		s.stats.errors++
		s.srv.stats.statementErrors.Add(1)
		return frameSeq{{FrameError, []byte(err.Error())}, {FrameDone, nil}}
	}
	if res == nil {
		return frameSeq{{FrameDone, []byte("ok")}}
	}
	frames := frameSeq{{FrameSchema, []byte(schemaText(res.Schema))}}
	for lo := 0; lo < len(res.Rows); lo += rowsPerFrame {
		hi := min(lo+rowsPerFrame, len(res.Rows))
		frames = append(frames, frame{FrameRows, value.EncodeRows(res.Rows[lo:hi])})
	}
	frames = append(frames,
		frame{FrameStats, []byte(res.Stats.String())},
		frame{FrameDone, []byte(fmt.Sprintf("%d rows", len(res.Rows)))})
	return frames
}

// execute parses, admits, and runs one statement under a resource lease.
// SELECTs go through the plan cache; everything else (DDL, INSERT, EXPLAIN)
// takes the uncached path — DDL invalidates the cache as a side effect of
// bumping the catalog version.
func (s *session) execute(sql string) (*core.Result, error) {
	piece, err := sqlparse.ParseOne(sql)
	if err != nil {
		return nil, err
	}
	s.srv.adm.acquire()
	defer s.srv.adm.release()
	rsrc := s.srv.lease()
	sel, isSelect := piece.Stmt.(*sqlparse.Select)
	if !isSelect {
		return s.srv.db.RunParsed(piece.Stmt, rsrc)
	}
	key := piece.Key()
	// The version is read BEFORE planning: if DDL lands between this read
	// and the store, the entry is recorded under the stale version and the
	// next lookup misses — never the reverse.
	version := s.srv.db.Catalog().Version()
	node, hit := s.srv.cache.lookup(key, version)
	if hit {
		s.stats.cacheHits++
	} else {
		node, err = s.srv.db.Plan(sel)
		if err != nil {
			return nil, err
		}
		s.srv.cache.store(key, version, node)
	}
	return s.srv.db.ExecutePlanned(node, rsrc)
}

// schemaText renders a result schema as one "name<TAB>TYPE" line per column.
func schemaText(schema plan.Schema) string {
	lines := make([]string, len(schema))
	for i, f := range schema {
		lines[i] = f.Name + "\t" + f.T.String()
	}
	return strings.Join(lines, "\n")
}
