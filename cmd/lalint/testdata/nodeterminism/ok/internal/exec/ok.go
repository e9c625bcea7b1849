// Package exec is a lalint golden-file fixture: the same constructs as the
// bad package, either fixed the sanctioned way or suppressed with a
// reasoned //lint:ignore directive. It must produce zero findings.
package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// Stamp documents why this wall-clock read is sanctioned.
func Stamp() int64 {
	//lint:ignore nodeterminism fixture: timing is measured output, not simulation state
	return time.Now().UnixNano()
}

// Draw threads an explicitly seeded generator (the clean fix, no directive
// needed).
func Draw(r *rand.Rand) float64 {
	return r.Float64()
}

// NewDraw constructs the seeded generator; constructors are not flagged.
func NewDraw(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// PrintAll suppresses the direct-output finding with a reason.
func PrintAll(m map[string]int) {
	//lint:ignore nodeterminism fixture: diagnostic-only output, order does not matter
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Collect sorts after the loop (the clean fix, no directive needed).
func Collect(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CollectInts sorts with the slices package after the loop.
func CollectInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
