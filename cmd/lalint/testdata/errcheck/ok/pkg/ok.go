// Package pkg is a lalint golden-file fixture: the same calls as the bad
// package, with errors handled or explicitly discarded. It must produce zero
// findings.
package pkg

import "os"

// Drop handles or visibly discards every error result.
func Drop(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	// An explicit discard is allowed: the _ makes the decision visible.
	defer func() { _ = f.Close() }()
	return os.Remove(path)
}
