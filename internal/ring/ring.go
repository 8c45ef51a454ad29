// Package ring is the bounded history behind every "most recent N" this
// repository keeps: decision journals, window timelines, drift blends,
// time series and retained traces. A Ring is first in, first out, and once
// full it overwrites its oldest item, so memory stays capped however long
// the run; Total keeps counting, so a reader can see how much history
// scrolled away.
//
// A Ring grows to its bound as items arrive instead of allocating it up
// front: a server holds hundreds of rings, many of them short, and pays
// only for what they hold. It grows fourfold at a step, not twofold, so a
// ring that fills leaves a third as much garbage behind: a server that
// opens a window timeline for every new instance allocates its rings
// continuously. A Ring is not safe for concurrent use; its owner guards it
// with the lock it already holds.
package ring

import "fmt"

// Ring holds the most recent items pushed into it, up to a bound fixed at
// New. Build one with New; the zero value has no room.
type Ring[T any] struct {
	buf   []T // grows to bound, then stays that size
	bound int
	next  int    // once full, the slot the next Push overwrites: the oldest
	total uint64 // items ever pushed
}

// New returns an empty ring that holds at most n items. It panics if n < 1.
func New[T any](n int) Ring[T] {
	if n < 1 {
		panic(fmt.Sprintf("ring: bound %d < 1", n))
	}
	return Ring[T]{bound: n}
}

// Push appends v, overwriting the oldest item when the ring is full.
func (r *Ring[T]) Push(v T) {
	r.total++
	if len(r.buf) < r.bound {
		if len(r.buf) == cap(r.buf) {
			grown := make([]T, len(r.buf), min(max(4*len(r.buf), 4), r.bound))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
}

// Len returns how many items the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Cap returns the ring's bound.
func (r *Ring[T]) Cap() int { return r.bound }

// Total returns how many items were ever pushed, including the ones since
// overwritten or cleared.
func (r *Ring[T]) Total() uint64 { return r.total }

// At returns the i-th item held, oldest first; it panics unless
// 0 <= i < Len().
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= len(r.buf) {
		panic(fmt.Sprintf("ring: index %d out of range [0,%d)", i, len(r.buf)))
	}
	return r.buf[(r.next+i)%len(r.buf)]
}

// Items copies the items held, oldest first. The result is never nil.
func (r *Ring[T]) Items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Clear empties the ring, keeping its storage. Total keeps counting.
func (r *Ring[T]) Clear() {
	clear(r.buf)
	r.buf = r.buf[:0]
	r.next = 0
}
