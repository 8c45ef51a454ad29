package ring

import (
	"slices"
	"testing"
)

// items reads the ring through At, to check it against Items.
func items[T any](r *Ring[T]) []T {
	out := make([]T, r.Len())
	for i := range out {
		out[i] = r.At(i)
	}
	return out
}

func TestPushBelowAtAndPastTheBound(t *testing.T) {
	r := New[int](3)
	for i, want := range [][]int{{0}, {0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {4, 5, 6}} {
		r.Push(i)
		if got := r.Items(); !slices.Equal(got, want) {
			t.Fatalf("after %d pushes: Items = %v, want %v", i+1, got, want)
		}
		if got := items(&r); !slices.Equal(got, want) {
			t.Fatalf("after %d pushes: At = %v, want %v", i+1, got, want)
		}
		if r.Len() != len(want) || r.Total() != uint64(i+1) || r.Cap() != 3 {
			t.Fatalf("after %d pushes: Len %d Total %d Cap %d", i+1, r.Len(), r.Total(), r.Cap())
		}
	}
}

func TestBoundOfOne(t *testing.T) {
	r := New[string](1)
	r.Push("a")
	r.Push("b")
	if got := r.Items(); !slices.Equal(got, []string{"b"}) || r.Total() != 2 {
		t.Fatalf("Items = %v, Total = %d", got, r.Total())
	}
}

func TestGrowsToTheBoundAndNoFurther(t *testing.T) {
	r := New[int](5)
	if n := testing.AllocsPerRun(1, func() { _ = New[int](5) }); n != 0 {
		t.Fatalf("New allocated %v times", n)
	}
	if r.buf != nil {
		t.Fatalf("an empty ring holds storage: cap %d", cap(r.buf))
	}
	for i := range 12 {
		r.Push(i)
		if cap(r.buf) > 5 {
			t.Fatalf("after %d pushes: storage for %d items, bound 5", i+1, cap(r.buf))
		}
	}
	if got := r.Items(); !slices.Equal(got, []int{7, 8, 9, 10, 11}) {
		t.Fatalf("Items = %v", got)
	}
}

func TestClearEmptiesButTotalKeepsCounting(t *testing.T) {
	r := New[int](3)
	for i := range 5 {
		r.Push(i)
	}
	r.Clear()
	if r.Len() != 0 || r.Total() != 5 || len(r.Items()) != 0 {
		t.Fatalf("after Clear: Len %d Total %d Items %v", r.Len(), r.Total(), r.Items())
	}
	r.Push(10)
	r.Push(11)
	if got := r.Items(); !slices.Equal(got, []int{10, 11}) || r.Total() != 7 {
		t.Fatalf("after Clear and two pushes: Items %v Total %d", got, r.Total())
	}
}

func TestEmptyItemsIsNotNil(t *testing.T) {
	r := New[int](4)
	if got := r.Items(); got == nil || len(got) != 0 {
		t.Fatalf("Items of an empty ring = %#v", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	r := New[int](4)
	r.Push(1)
	for _, i := range []int{-1, 1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a one-item ring did not panic", i)
				}
			}()
			r.At(i)
		}()
	}
}

func TestNewRejectsBoundBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}
