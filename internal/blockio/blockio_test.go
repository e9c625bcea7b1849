package blockio

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Magic: "LATESTFM", Version: 3, Extra: 4096}
	prefix := []byte("prefix")
	buf, err := AppendHeader(prefix, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:len(prefix)], prefix) || len(buf) != len(prefix)+HeaderLen {
		t.Fatalf("AppendHeader wrote %d bytes after the prefix, want %d", len(buf)-len(prefix), HeaderLen)
	}
	got, err := ReadHeader(bytes.NewReader(buf[len(prefix):]), "LATESTFM", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
}

func TestHeaderMismatch(t *testing.T) {
	buf, err := AppendHeader(nil, Header{Magic: "LATESTFM", Version: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHeader(bytes.NewReader(buf), "OTHERFMT", 3); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if _, err := ReadHeader(bytes.NewReader(buf), "LATESTFM", 4); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := ReadHeader(bytes.NewReader(buf[:5]), "LATESTFM", 3); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := AppendHeader(nil, Header{Magic: "short"}); err == nil {
		t.Fatal("short magic accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xab}, 1000)}
	for i, p := range payloads {
		n, err := WriteFrame(&buf, uint32(i*7), p)
		if err != nil {
			t.Fatal(err)
		}
		if n != FrameSize(len(p)) {
			t.Fatalf("frame %d: wrote %d bytes, FrameSize says %d", i, n, FrameSize(len(p)))
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, p := range payloads {
		got, aux, err := ReadFrame(r, 1<<20)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if aux != uint32(i*7) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: aux=%d payload=%q", i, aux, got)
		}
	}
	if _, _, err := ReadFrame(r, 1<<20); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, 42, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	app := AppendFrame(nil, 42, []byte("payload"))
	if !bytes.Equal(buf.Bytes(), app) {
		t.Fatal("AppendFrame and WriteFrame encode differently")
	}
}

func TestTornTailDetection(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, 1, []byte("complete frame")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	tornCases := [][]byte{
		whole[:len(whole)-1], // payload cut short
		whole[:8],            // header cut short
		append(append([]byte{}, whole...), 0x01, 0x02), // trailing garbage = torn next header
	}
	for i, data := range tornCases {
		r := bytes.NewReader(data)
		if i < 2 {
			_, _, err := ReadFrame(r, 1<<20)
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("case %d: want ErrTorn, got %v", i, err)
			}
			continue
		}
		// Full frame reads fine, then the torn tail surfaces.
		if _, _, err := ReadFrame(r, 1<<20); err != nil {
			t.Fatalf("case %d: first frame: %v", i, err)
		}
		_, _, err := ReadFrame(r, 1<<20)
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("case %d: want ErrTorn on tail, got %v", i, err)
		}
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, 9, []byte("sensitive bits")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-3] ^= 0x40 // flip a payload bit
	_, _, err := ReadFrame(bytes.NewReader(data), 1<<20)
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("want ErrTorn on corrupt payload, got %v", err)
	}
}

func TestLengthCapEnforced(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, 0, bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 10)
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("want ErrTorn on oversized frame, got %v", err)
	}
}

// FuzzBlockFrames: on any file image, ReadHeader and ReadFrame never panic
// and never return a payload past the cap; every frame they accept,
// re-encoded, reproduces exactly the bytes it was read from, and reading it
// again at its offset alone (as spill runs read their frames) gives it back.
func FuzzBlockFrames(f *testing.F) {
	const (
		magic      = "LAFUZZ01"
		version    = 1
		maxPayload = 1 << 10
	)
	file, err := AppendHeader(nil, Header{Magic: magic, Version: version, Extra: 7})
	if err != nil {
		f.Fatal(err)
	}
	for i, p := range [][]byte{[]byte("rows"), {}, bytes.Repeat([]byte{0xab}, 300)} {
		file = AppendFrame(file, uint32(i), p)
	}
	f.Add(file)
	f.Add(file[:len(file)-5])                                                                // torn payload
	f.Add(file[:HeaderLen+3])                                                                // torn frame header
	f.Add(AppendFrame(file[:HeaderLen:HeaderLen], 1, bytes.Repeat([]byte{1}, maxPayload+1))) // past the cap
	corrupt := append([]byte(nil), file...)
	corrupt[len(corrupt)-1] ^= 0x40 // checksum mismatch
	f.Add(corrupt)
	f.Add(file[:HeaderLen-1]) // short header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		if _, err := ReadHeader(r, magic, version); err != nil {
			return
		}
		off := HeaderLen
		for {
			p, aux, err := ReadFrame(r, maxPayload)
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTorn) {
					t.Fatalf("ReadFrame: unexpected error kind %v", err)
				}
				return
			}
			if cap(p) > maxPayload {
				t.Fatalf("payload capacity %d past the cap %d", cap(p), maxPayload)
			}
			enc := AppendFrame(nil, aux, p)
			end := len(b) - r.Len()
			if !bytes.Equal(enc, b[off:end]) {
				t.Fatalf("frame re-encodes to %x, read from %x", enc, b[off:end])
			}
			again, aux2, err := ReadFrame(io.NewSectionReader(r, int64(off), int64(end-off)), maxPayload)
			if err != nil || aux2 != aux || !bytes.Equal(again, p) {
				t.Fatalf("frame at offset %d reads back differently: %v", off, err)
			}
			off = end
		}
	})
}
