// Package cache models the private L1 data caches and the shared L2 of the
// simulated CMP (paper Table 2: 32 KB / 4-way / 32 B L1; 8 MB / 8-way L2).
//
// Per the Bulk design, the tag and data arrays are consistency-oblivious:
// the cache does not know which lines are speculative. The only concession
// is a per-way pin mask maintained *on behalf of* the BDM, which models the
// BDM's refusal to let speculatively written lines leave the cache before
// commit. Bulk invalidation decodes a signature into candidate sets (δ) and
// membership-tests only the ways in those sets, exactly like the hardware.
package cache

import (
	"math"

	"bulksc/internal/mem"
	"bulksc/internal/sig"
)

// LineState is the coherence state of a cached line. The conventional
// protocol uses all three states (MESI with E and M folded into Excl and
// Dirty); BulkSC uses Shared and Dirty only.
type LineState uint8

const (
	// Invalid marks an empty way.
	Invalid LineState = iota
	// Shared is a clean copy that other caches may also hold.
	Shared
	// Excl is a clean copy guaranteed to be the only cached one.
	Excl
	// Dirty is a modified copy; memory is stale.
	Dirty
)

func (s LineState) String() string {
	switch s {
	case Shared:
		return "S"
	case Excl:
		return "E"
	case Dirty:
		return "D"
	default:
		return "I"
	}
}

// Way is one cache way, 16 bytes, so a 4-way L1 set fills one 64-byte
// line. PinMask is a bitmask of chunk slots that have speculatively
// written the line; a nonzero mask pins the line (the BDM blocks its
// displacement until the chunks commit or squash). lru is the way's
// recency stamp from the cache's tick (see L1.stamp).
type Way struct {
	Line    mem.Line
	State   LineState
	PinMask uint8
	lru     uint32
}

// Valid reports whether the way holds a line.
func (w *Way) Valid() bool { return w.State != Invalid }

// L1 is a set-associative cache.
type L1 struct {
	//lint:poolsafe immutable geometry fixed at construction
	nsets, assoc int
	ways         []Way // nsets × assoc, row-major
	tick         uint32
}

// Reset scrubs the tag array and LRU clock in place, returning the cache
// to its just-constructed state without reallocating the ways slice. A
// warm machine reuse (core.Runner) must leave no stale tags behind: a
// surviving valid way would satisfy the next run's first probe and skew
// its miss stream — the stale-tag-array leak class the poolhygiene
// fixture pins.
func (c *L1) Reset() {
	clear(c.ways)
	c.tick = 0
}

// NewL1 returns a cache with nsets sets (power of two, ≤ sig.BankBits so
// signature decode works) of assoc ways each.
func NewL1(nsets, assoc int) *L1 {
	if nsets <= 0 || nsets&(nsets-1) != 0 || nsets > sig.BankBits {
		panic("cache: nsets must be a power of two ≤ 512")
	}
	return &L1{nsets: nsets, assoc: assoc, ways: make([]Way, nsets*assoc)}
}

// Sets returns the number of sets.
func (c *L1) Sets() int { return c.nsets }

// Assoc returns the associativity.
func (c *L1) Assoc() int { return c.assoc }

func (c *L1) setIndex(l mem.Line) int { return int(uint64(l) & uint64(c.nsets-1)) }

func (c *L1) set(idx int) []Way { return c.ways[idx*c.assoc : (idx+1)*c.assoc] }

// Probe returns the way holding l without updating recency, or nil.
//
//sim:hotpath
func (c *L1) Probe(l mem.Line) *Way {
	s := c.set(c.setIndex(l))
	for i := range s {
		// Tag compare first: most ways mismatch on Line, skipping the
		// state check; an invalid way (zeroed, Line 0) still fails Valid.
		if s[i].Line == l && s[i].Valid() {
			return &s[i]
		}
	}
	return nil
}

// Access is Probe plus an LRU touch on hit.
//
//sim:hotpath
func (c *L1) Access(l mem.Line) *Way {
	w := c.Probe(l)
	if w != nil {
		w.lru = c.stamp()
	}
	return w
}

// stamp advances the LRU clock and returns the new stamp.
//
//sim:hotpath
func (c *L1) stamp() uint32 {
	if c.tick == math.MaxUint32 {
		c.renumber()
	}
	c.tick++
	return c.tick
}

// renumber runs before the 32-bit tick would wrap: it replaces every
// set's valid stamps by their rank (1..assoc) and restarts the tick at
// assoc. Every within-set recency order, and so every victim choice, is
// preserved exactly.
func (c *L1) renumber() {
	rank := make([]uint32, c.assoc)
	for idx := 0; idx < c.nsets; idx++ {
		s := c.set(idx)
		for i := range s {
			rank[i] = 1
			for j := range s {
				if s[j].Valid() && s[j].lru < s[i].lru {
					rank[i]++
				}
			}
		}
		for i := range s {
			if s[i].Valid() {
				s[i].lru = rank[i]
			}
		}
	}
	c.tick = uint32(c.assoc)
}

// Insert places l with the given state, evicting the LRU unpinned way if
// needed. It returns the victim (valid ⇒ a line was displaced) and ok=false
// if every way in the set is pinned — the cache-set-overflow condition that
// forces a chunk to finish early (paper §4.1.2).
//
//sim:hotpath
func (c *L1) Insert(l mem.Line, st LineState) (victim Way, ok bool) {
	idx := c.setIndex(l)
	s := c.set(idx)
	if w := c.Probe(l); w != nil {
		w.State = st
		w.lru = c.stamp()
		return Way{}, true
	}
	var slot *Way
	for i := range s {
		if !s[i].Valid() {
			slot = &s[i]
			break
		}
	}
	if slot == nil {
		for i := range s {
			if s[i].PinMask != 0 {
				continue
			}
			if slot == nil || s[i].lru < slot.lru {
				slot = &s[i]
			}
		}
	}
	if slot == nil {
		return Way{}, false
	}
	victim = *slot
	*slot = Way{Line: l, State: st, lru: c.stamp()}
	return victim, true
}

// RoomFor reports whether l could be inserted (present, or a free/unpinned
// way exists). Used to detect set overflow before issuing a fill.
func (c *L1) RoomFor(l mem.Line) bool {
	if c.Probe(l) != nil {
		return true
	}
	s := c.set(c.setIndex(l))
	for i := range s {
		if !s[i].Valid() || s[i].PinMask == 0 {
			return true
		}
	}
	return false
}

// Invalidate removes l if present and returns its former state.
//
//sim:hotpath
func (c *L1) Invalidate(l mem.Line) LineState {
	if w := c.Probe(l); w != nil {
		st := w.State
		*w = Way{}
		return st
	}
	return Invalid
}

// Pin marks l speculatively written by chunk slot (0..7). The line must be
// present.
//
//sim:hotpath
func (c *L1) Pin(l mem.Line, slot int) bool {
	w := c.Probe(l)
	if w == nil {
		return false
	}
	w.PinMask |= 1 << uint(slot)
	return true
}

// Unpin clears slot's pin on l, if present, and returns the way.
//
//sim:hotpath
func (c *L1) Unpin(l mem.Line, slot int) *Way {
	w := c.Probe(l)
	if w != nil {
		w.PinMask &^= 1 << uint(slot)
	}
	return w
}

// BulkInvalidate performs the Bulk bulk-invalidation operation: it decodes
// s into candidate sets, membership-tests every resident way in them, and
// invalidates matches. Ways pinned by any chunk slot are skipped (their
// fate is decided by the squash path). Lines present but merely aliased
// into the signature are still invalidated — that is the cost of superset
// encoding — and the visit callback lets the caller classify true vs
// aliased invalidations and handle dirty victims. visit may be nil.
//
//sim:hotpath
func (c *L1) BulkInvalidate(s sig.Signature, visit func(w Way)) int {
	mask := s.CandidateSets(c.nsets)
	n := 0
	for idx := 0; idx < c.nsets; idx++ {
		if !mask.Has(idx) {
			continue
		}
		set := c.set(idx)
		for i := range set {
			w := &set[i]
			if !w.Valid() || w.PinMask != 0 || !s.MayContain(w.Line) {
				continue
			}
			if visit != nil {
				visit(*w)
			}
			*w = Way{}
			n++
		}
	}
	return n
}

// LinesMatching returns the resident, unpinned lines that s may contain,
// without invalidating them. Used by tests and by the directory-cache
// displacement path.
func (c *L1) LinesMatching(s sig.Signature) []mem.Line {
	mask := s.CandidateSets(c.nsets)
	var out []mem.Line
	for idx := 0; idx < c.nsets; idx++ {
		if !mask.Has(idx) {
			continue
		}
		for _, w := range c.set(idx) {
			if w.Valid() && w.PinMask == 0 && s.MayContain(w.Line) {
				out = append(out, w.Line)
			}
		}
	}
	return out
}

// Occupancy returns the number of valid ways, for tests.
func (c *L1) Occupancy() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].Valid() {
			n++
		}
	}
	return n
}

// PinnedInSet returns how many ways of l's set are pinned, for overflow
// heuristics and tests.
func (c *L1) PinnedInSet(l mem.Line) int {
	n := 0
	for _, w := range c.set(c.setIndex(l)) {
		if w.Valid() && w.PinMask != 0 {
			n++
		}
	}
	return n
}
