// Package slab provides a size-class recycler for the power-of-two
// backing arrays behind the simulator's open-addressed tables (package
// lineset's sets and maps).
//
// The warm-reuse bit-identity contract (DESIGN.md §11) forbids carrying a
// table's *capacity* across runs — slot-order iteration depends on it —
// so every run must re-walk the cold growth history: allocate 16 slots,
// grow to 32, 64, ... . A Pool lets that history reuse *storage* without
// reusing capacity: grown-out and drained arrays are binned by length,
// and the next request for the same length pops one instead of
// allocating. A recycled array is returned zeroed, making it
// indistinguishable from a fresh make — array identity never reaches
// simulated state, so recycling is behavior-neutral by construction (and
// pinned by the golden warm-reuse tests).
//
// Pools are owned by long-lived machine components (one per processor for
// chunk state, one per directory module for its buckets) and therefore
// survive machine.Reset: a warm machine's second run draws its entire
// growth history from the pool, which is where the warm sweep's
// allocation win over cold construction comes from. A Pool is not safe
// for concurrent use; parallel sweep workers each own their machine and
// with it their pools.
package slab

import "math/bits"

// maxClass bounds the tracked size classes: lengths up to 2^maxClass-1
// elements. Larger slices (none exist in practice — the largest tables
// hold tens of thousands of slots) are allocated directly.
const maxClass = 28

// Pool recycles power-of-two-length slices of T, binned by length. The
// zero value is an empty pool ready for use; a nil *Pool is inert (Get
// allocates, Put drops).
type Pool[T any] struct {
	classes [maxClass][][]T
}

// class returns the bin for length n, or -1 if n is untracked (not a
// power of two, zero, or out of range).
func class(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	c := bits.TrailingZeros(uint(n))
	if c >= maxClass {
		return -1
	}
	return c
}

// Get returns a zeroed slice of length n (n must be a power of two),
// recycling a pooled one when available.
//
//sim:pool acquire
func (p *Pool[T]) Get(n int) []T {
	if p != nil {
		if c := class(n); c >= 0 {
			if bin := p.classes[c]; len(bin) > 0 {
				s := bin[len(bin)-1]
				bin[len(bin)-1] = nil
				p.classes[c] = bin[:len(bin)-1]
				return s
			}
		}
	}
	return make([]T, n)
}

// Put recycles s for a future Get of the same length. The slice is
// cleared here — at recycle time, not hand-out time — so pooled memory
// never retains stale simulated state (or, for pointer element types,
// dead references). Non-power-of-two or oversized slices are dropped.
//
//sim:pool release
func (p *Pool[T]) Put(s []T) {
	if p == nil {
		return
	}
	c := class(len(s))
	if c < 0 {
		return
	}
	clear(s)
	p.classes[c] = append(p.classes[c], s[:len(s):len(s)])
}
