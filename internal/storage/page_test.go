package storage

import (
	"bytes"
	"encoding/binary"
	"os"
	"strings"
	"testing"

	"relalg/internal/blockio"
	"relalg/internal/linalg"
	"relalg/internal/value"
)

// TestHostileMatrixDimsFailScan rewrites a committed MATRIX cell's rows and
// cols words to 0xFFFFFFFF under a valid checksum. The scan must refuse the
// page by name instead of sizing an allocation from the product.
func TestHostileMatrixDimsFailScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.CreateTable("m", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 15)
	for i := range data {
		data[i] = float64(i) + 0.5
	}
	if err := tb.Append(0, []value.Row{{value.Matrix(&linalg.Matrix{Rows: 3, Cols: 5, Data: data})}}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	path := s.tablePath(tb.id)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	page := file[blockio.HeaderLen:] // the page at slot 0
	payload := page[pageHeaderLen:]
	dims := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 3), 5)
	at := bytes.Index(payload, dims)
	if at < 0 {
		t.Fatal("matrix dimensions not found in the page payload")
	}
	binary.LittleEndian.PutUint64(payload[at:], 0xFFFFFFFF_FFFFFFFF)
	nrows := binary.LittleEndian.Uint32(page[12:])
	binary.LittleEndian.PutUint64(page[24:], blockio.Checksum(nrows, payload))
	if err := os.WriteFile(path, file, 0o666); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	tb2, _ := s2.Table("m")
	if _, err := readPart(tb2, 0); err == nil || !strings.Contains(err.Error(), "page at slot 0") {
		t.Fatalf("scan of a hostile matrix header: %v", err)
	}
}

// FuzzDecodePage feeds decodePage an image and the journal's view of it
// (part, rows, and a byte count the image is cut to, as the pool reads it).
// It must never panic, and an image it accepts must be the one encodePage
// writes for the rows it decoded. resum recomputes the checksum first, so
// mutations reach the row decoder instead of stopping at the checksum.
func FuzzDecodePage(f *testing.F) {
	rows := testRows()
	for i := range rows {
		payload := value.EncodeRows(rows[i:])
		image := encodePage(uint32(i), uint32(len(rows)-i), payload)
		f.Add(image, uint32(i), uint32(len(rows)-i), uint32(len(image)), false)
		f.Add(image, uint32(i), uint32(len(rows)-i), uint32(len(image)), true)
	}
	f.Add([]byte{}, uint32(0), uint32(0), uint32(0), false)
	f.Fuzz(func(t *testing.T, image []byte, part, nrows, n uint32, resum bool) {
		image = append([]byte(nil), image...)
		if int64(n) < int64(len(image)) {
			image = image[:n]
		}
		if resum && len(image) >= pageHeaderLen {
			sum := blockio.Checksum(binary.LittleEndian.Uint32(image[12:]), image[pageHeaderLen:])
			binary.LittleEndian.PutUint64(image[24:], sum)
		}
		got, err := decodePage(image, pageInfo{Part: part, Rows: nrows, Bytes: uint32(len(image))})
		if err != nil {
			return
		}
		if again := encodePage(part, nrows, value.EncodeRows(got)); !bytes.Equal(again, image) {
			t.Fatalf("accepted image does not re-encode to itself:\n got %x\nwant %x", again, image)
		}
	})
}
