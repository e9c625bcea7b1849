// Package opt is a lalint golden-file fixture: the error-returning fix of
// the bad package's panic, and a Must* helper whose contract is to panic. It
// must produce zero findings.
package opt

import "errors"

// Reorder returns an error instead of panicking (the clean fix).
func Reorder(n int) (int, error) {
	if n < 0 {
		return 0, errors.New("opt: negative relation count")
	}
	return n, nil
}

// MustReorder panics where Reorder returns an error; the Must prefix opts
// the caller in.
func MustReorder(n int) int {
	if n < 0 {
		panic("opt: negative relation count")
	}
	return n
}
