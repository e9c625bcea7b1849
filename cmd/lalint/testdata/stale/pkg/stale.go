// Package pkg is a lalint fixture: one directive suppresses a finding, the
// other suppresses nothing and is itself a finding.
package pkg

import "os"

// Drop's directive covers the unchecked error below it.
func Drop(path string) {
	//lint:ignore errcheck fixture: removal failure of a temp file is not actionable
	os.Remove(path)
}

// Remove's directive is stale: the error below it is returned.
func Remove(path string) error {
	//lint:ignore errcheck fixture: nothing left to suppress
	return os.Remove(path)
}
