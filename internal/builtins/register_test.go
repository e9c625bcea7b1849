package builtins

import (
	"sort"
	"testing"
)

func TestRegisterDuplicateIsError(t *testing.T) {
	// Colliding with an existing name panics and must not clobber the
	// registry.
	panics := func(register func()) (failed bool) {
		defer func() { failed = recover() != nil }()
		register()
		return false
	}
	before, _ := Lookup("matrix_multiply")
	if !panics(func() { mustRegister(&Builtin{Name: "matrix_multiply"}) }) {
		t.Fatal("mustRegister accepted a duplicate scalar builtin")
	}
	if after, _ := Lookup("matrix_multiply"); after != before {
		t.Fatal("failed duplicate registration replaced the original builtin")
	}

	beforeAgg, _ := LookupAgg("sum")
	if !panics(func() { mustRegisterAgg(&AggSpec{Name: "sum"}) }) {
		t.Fatal("mustRegisterAgg accepted a duplicate aggregate")
	}
	if afterAgg, _ := LookupAgg("sum"); afterAgg != beforeAgg {
		t.Fatal("failed duplicate registration replaced the original aggregate")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no builtins registered")
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
}
