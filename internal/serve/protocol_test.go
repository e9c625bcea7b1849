package serve

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := []struct {
		typ byte
		p   []byte
	}{
		{FrameHello, []byte(Banner)},
		{FrameQuery, []byte("SELECT 1")},
		{FrameRows, []byte{0, 1, 2, 255}},
		{FrameDone, nil},
	}
	for _, f := range payloads {
		if err := WriteFrame(&buf, f.typ, f.p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		typ, p, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != want.typ || !bytes.Equal(p, want.p) {
			t.Fatalf("got (%q, %v), want (%q, %v)", typ, p, want.typ, want.p)
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("exhausted stream: got %v, want io.EOF", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameQuery, []byte("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, _, err := ReadFrame(bytes.NewReader(cut)); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload: got %v, want ErrUnexpectedEOF", err)
	}
	// Truncated header (1 byte of the 5-byte prefix).
	if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()[:1])); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated header: got %v, want ErrUnexpectedEOF", err)
	}
}

func TestFrameOversized(t *testing.T) {
	if err := WriteFrame(io.Discard, FrameRows, make([]byte, maxFrameBytes+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
	// A length prefix past the limit must be rejected before allocating.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, FrameRows}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized read: got %v", err)
	}
}

// TestFrameReadAllocatesWhatArrives: a length prefix near the cap on a short
// stream fails without allocating the claimed payload, and a frame larger
// than the first chunk still reads back whole.
func TestFrameReadAllocatesWhatArrives(t *testing.T) {
	hdr := []byte{0x03, 0xff, 0xff, 0xff, FrameRows} // 64 MiB - 1 claimed, nothing sent
	// TotalAlloc counts every goroutine's allocations, so take the least of a
	// few attempts: a stray allocation elsewhere only ever adds.
	least := ^uint64(0)
	for attempt := 0; attempt < 5; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadFrame(bytes.NewReader(hdr))
		runtime.ReadMemStats(&after)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("got %v, want ErrUnexpectedEOF", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 2*frameChunk {
		t.Fatalf("a bare header allocated %d bytes, want <= %d", least, 2*frameChunk)
	}
	big := make([]byte, 3*frameChunk+5)
	for i := range big {
		big[i] = byte(i)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameRows, big); err != nil {
		t.Fatal(err)
	}
	typ, p, err := ReadFrame(&buf)
	if err != nil || typ != FrameRows || !bytes.Equal(p, big) {
		t.Fatalf("large frame: type %q, %d bytes, err %v", typ, len(p), err)
	}
}

// FuzzReadFrame: ReadFrame never panics on any byte stream, and the frames it
// reads, written back with WriteFrame, reproduce exactly the bytes it
// consumed.
func FuzzReadFrame(f *testing.F) {
	var stream bytes.Buffer
	for _, fr := range []struct {
		typ byte
		p   []byte
	}{
		{FrameHello, []byte(Banner)},
		{FrameQuery, []byte("SELECT 1")},
		{FrameRows, []byte{0, 1, 2, 255}},
		{FrameStats, []byte("produced 3 tuples")},
		{FrameDone, nil},
	} {
		if err := WriteFrame(&stream, fr.typ, fr.p); err != nil {
			f.Fatal(err)
		}
	}
	all := stream.Bytes()
	f.Add(all)
	f.Add(all[:len(all)-3])                          // truncated payload
	f.Add(all[:1])                                   // truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, FrameRows}) // past the cap
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		var out bytes.Buffer
		good := 0 // bytes consumed by whole frames
		for {
			typ, p, err := ReadFrame(r)
			if err != nil {
				break
			}
			if err := WriteFrame(&out, typ, p); err != nil {
				t.Fatalf("WriteFrame of a frame ReadFrame accepted: %v", err)
			}
			good = len(b) - r.Len()
		}
		if !bytes.Equal(out.Bytes(), b[:good]) {
			t.Fatalf("frames re-encode to %x, read from %x", out.Bytes(), b[:good])
		}
	})
}
