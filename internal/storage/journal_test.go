package storage

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relalg/internal/blockio"
)

// appendJournal appends one framed record per payload to dir's journal.
func appendJournal(t testing.TB, dir string, payloads ...[]byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "journal.wal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	for _, p := range payloads {
		if _, err := f.Write(blockio.AppendFrame(nil, 0, p)); err != nil {
			t.Fatal(err)
		}
	}
}

func mustJSON(t testing.TB, rec jrec) []byte {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayRefusesBadRecords appends one hostile record to a valid journal
// whose table files all exist and hold the committed page p, so replay is
// the only thing that can refuse it. A partition count out of range used to
// size an allocation: -1 panicked Open.
func TestReplayRefusesBadRecords(t *testing.T) {
	cases := map[string]func(p pageInfo) jrec{
		"negative parts": func(pageInfo) jrec { return jrec{Op: "create", ID: 2, Name: "u", Parts: -1} },
		"zero parts":     func(pageInfo) jrec { return jrec{Op: "create", ID: 2, Name: "u"} },
		"too many parts": func(pageInfo) jrec { return jrec{Op: "create", ID: 2, Name: "u", Parts: maxParts + 1} },
		"reused id":      func(pageInfo) jrec { return jrec{Op: "create", ID: 1, Name: "u", Parts: 1} },
		"page part":      func(p pageInfo) jrec { p.Part = 1; return jrec{Op: "commit", ID: 1, Pages: []pageInfo{p}} },
		"zero slots":     func(p pageInfo) jrec { p.Slots = 0; return jrec{Op: "commit", ID: 1, Pages: []pageInfo{p}} },
		"slot count":     func(p pageInfo) jrec { p.Slots = 1<<32 - 1; return jrec{Op: "commit", ID: 1, Pages: []pageInfo{p}} },
		"short page":     func(p pageInfo) jrec { p.Bytes = 10; return jrec{Op: "commit", ID: 1, Pages: []pageInfo{p}} },
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{PageBytes: 1024})
			if err != nil {
				t.Fatal(err)
			}
			tb, err := s.CreateTable("t", 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.Append(0, bigRows(1, 1, 4)); err != nil {
				t.Fatal(err)
			}
			if err := tb.Commit(); err != nil {
				t.Fatal(err)
			}
			p := tb.pages[0]
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(filepath.Join(dir, "tables", "1.tbl"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "tables", "2.tbl"), file[:blockio.HeaderLen], 0o666); err != nil {
				t.Fatal(err)
			}
			appendJournal(t, dir, mustJSON(t, bad(p)))
			if s, err := Open(dir, Options{}); err == nil {
				_ = s.Close()
				t.Fatalf("Open accepted %+v", bad(p))
			}
		})
	}
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if _, err := s.CreateTable("wide", maxParts+1, nil); err == nil || !strings.Contains(err.Error(), "partition count") {
		t.Fatalf("CreateTable past the partition limit: %v", err)
	}
}

// FuzzReplayJournal replays fuzzed journal records, one frame per line of
// the input, over a directory whose manifest and table files a small real
// workload wrote. Open must return a store or an error, never panic; an
// opened store must scan every table without panicking.
func FuzzReplayJournal(f *testing.F) {
	tmpl := f.TempDir()
	s, err := Open(tmpl, Options{PageBytes: 512, PoolBytes: 4 << 10})
	if err != nil {
		f.Fatal(err)
	}
	a, err := s.CreateTable("a", 2, []byte("schema-a"))
	if err != nil {
		f.Fatal(err)
	}
	b, err := s.CreateTable("b", 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	rows := bigRows(3, 30, 8)
	for i, tb := range []*Table{a, b, a} {
		if err := tb.Append(i%tb.Parts(), rows[i*10:i*10+10]); err != nil {
			f.Fatal(err)
		}
		if err := tb.Commit(); err != nil {
			f.Fatal(err)
		}
	}
	if err := a.SetMeta([]byte("schema-a2")); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range []string{"MANIFEST", "tables/1.tbl", "tables/2.tbl"} {
		if files[name], err = os.ReadFile(filepath.Join(tmpl, name)); err != nil {
			f.Fatal(err)
		}
	}
	jf, err := os.Open(filepath.Join(tmpl, "journal.wal"))
	if err != nil {
		f.Fatal(err)
	}
	defer func() { _ = jf.Close() }()
	if _, err := blockio.ReadHeader(jf, journalMagic, FormatVersion); err != nil {
		f.Fatal(err)
	}
	var recs [][]byte
	for {
		p, _, err := blockio.ReadFrame(jf, maxJournalPayload)
		if err != nil {
			break
		}
		recs = append(recs, p)
	}
	f.Add(bytes.Join(recs, []byte("\n")))
	f.Add(bytes.Join(append(recs, []byte(`{"op":"drop","id":1}`)), []byte("\n")))
	f.Add([]byte(`{"op":"create","id":1,"name":"a","parts":-1}`))

	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, "tables"), 0o777); err != nil {
			t.Fatal(err)
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		hdr, err := blockio.AppendHeader(nil, blockio.Header{Magic: journalMagic, Version: FormatVersion, Extra: 512})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.wal"), hdr, 0o666); err != nil {
			t.Fatal(err)
		}
		appendJournal(t, dir, bytes.Split(journal, []byte("\n"))...)
		s, err := Open(dir, Options{PoolBytes: 4 << 10})
		if err != nil {
			return
		}
		defer func() { _ = s.Close() }()
		for _, tb := range s.Tables() {
			for part := 0; part < tb.Parts(); part++ {
				_, _ = readPart(tb, part)
			}
		}
	})
}
