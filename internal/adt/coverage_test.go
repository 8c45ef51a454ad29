package adt

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestEveryContainerPackageReachable asserts that every package under
// internal/containers is wired into adt.New through some Kind — the guard
// that caught btree and sortedvec shipping as dead code. Packages that host
// containers rather than implement backends are allowlisted.
func TestEveryContainerPackageReachable(t *testing.T) {
	hosts := map[string]bool{
		"adaptive": true, // wraps an inner adt.Container; not a backend
	}

	// Collect the package path of every backend an adapter can reach by
	// following the dynamic values New returns for each kind, through the
	// adapters' interface fields down to the first container type.
	reached := map[string]bool{}
	adtPkg := reflect.TypeOf(Kind(0)).PkgPath()
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for v.Kind() == reflect.Ptr || v.Kind() == reflect.Interface {
			if v.IsNil() {
				return
			}
			v = v.Elem()
		}
		if pkg := v.Type().PkgPath(); strings.Contains(pkg, "/containers/") {
			reached[pkg[strings.LastIndex(pkg, "/")+1:]] = true
		} else if pkg == adtPkg && v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	for _, k := range allKinds() {
		walk(reflect.ValueOf(New(k, nil, 8)))
	}

	entries, err := os.ReadDir("../containers")
	if err != nil {
		t.Fatalf("reading containers dir: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() || hosts[e.Name()] {
			continue
		}
		if !reached[e.Name()] {
			t.Errorf("internal/containers/%s is not reachable from adt.New — dead code", e.Name())
		}
	}
	if len(reached) == 0 {
		t.Fatal("reflection walk found no backend packages; test is broken")
	}
}
