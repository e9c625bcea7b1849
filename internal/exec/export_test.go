package exec

import "testing"

// SetWindow runs the rest of the test at an n-row window.
func SetWindow(t testing.TB, n int) {
	t.Helper()
	old := window
	window = n
	t.Cleanup(func() { window = old })
}
