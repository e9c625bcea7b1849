// Package exec is a lalint golden-file fixture: the same hot-path loops as
// the bad package, fixed with pointers and indexes. It must produce zero
// findings.
package exec

type block struct {
	cells [32]float64
}

// Sum takes the block by pointer (the clean fix).
func Sum(b *block) float64 {
	var t float64
	for _, c := range b.cells {
		t += c
	}
	return t
}

// Total ranges over indexes (the clean fix).
func Total(blocks []block) float64 {
	var t float64
	for i := range blocks {
		t += Sum(&blocks[i])
	}
	return t
}
