package cache

import (
	"math"

	"bulksc/internal/mem"
)

// l2GroupSets is the granularity of lazy tag-store allocation: ways are
// carved into groups of this many consecutive sets, each allocated on
// first install. A short run touches a small fraction of the 32768 sets,
// so cold machine construction allocates ~4 KB of group pointers instead
// of zeroing the full multi-megabyte ways array — the single largest
// machine structure — and the touched groups stay dense in cache.
const l2GroupSets = 64

// L2 models the shared on-chip L2 as a set-associative tag store: the
// simulator only needs to know whether a line hits on chip (13-cycle round
// trip) or must come from memory (300 cycles). Values live in mem.Memory.
type L2 struct {
	//lint:poolsafe immutable geometry fixed at construction
	nsets, assoc int
	// groups is the lazily allocated tag storage: groups[g] covers sets
	// [g*l2GroupSets, (g+1)*l2GroupSets) and is nil until a line is first
	// installed there. Within a group, ways are scrubbed lazily: a way is
	// valid only while its gen matches the store's, so Reset invalidates
	// every resident tag by bumping one counter instead of a memclr sweep.
	// Stale entries behave exactly as empty ways until overwritten.
	//lint:poolsafe generation-tagged; entries with gen != current are invisible
	groups [][]l2way
	tick   uint32
	gen    uint32
}

// Reset scrubs the tag store in place — O(1): advancing the generation
// makes every resident tag invisible. Allocated groups are retained so a
// warm reuse re-fills recycled storage instead of the allocator.
func (c *L2) Reset() {
	c.gen++
	if c.gen == 0 {
		// Generation wrapped (once per 2^32 resets): scrub for real so
		// entries stamped with the recycled epoch cannot resurface.
		for _, g := range c.groups {
			clear(g)
		}
		c.gen = 1
	}
	c.tick = 0
}

// l2way is one L2 way, 16 bytes, so an 8-way set fills two 64-byte
// lines. lru is the way's recency stamp (see L2.stamp).
type l2way struct {
	line mem.Line
	lru  uint32
	// gen stamps the Reset epoch that installed this way; it is valid only
	// while it matches L2.gen. The zero value (gen 0 vs the store's initial
	// gen 1) is an empty way.
	gen uint32
}

// NewL2 returns an L2 tag store with nsets sets (power of two) of assoc
// ways.
func NewL2(nsets, assoc int) *L2 {
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: L2 nsets must be a power of two")
	}
	ngroups := (nsets + l2GroupSets - 1) / l2GroupSets
	return &L2{nsets: nsets, assoc: assoc, groups: make([][]l2way, ngroups), gen: 1}
}

// set returns the ways of l's set, or nil if its group was never
// installed into (every way empty).
//
//sim:hotpath
func (c *L2) set(l mem.Line) []l2way {
	idx := int(uint64(l) & uint64(c.nsets-1))
	g := c.groups[idx/l2GroupSets]
	if g == nil {
		return nil
	}
	base := (idx % l2GroupSets) * c.assoc
	return g[base : base+c.assoc]
}

// setAlloc is set plus on-demand group allocation, for the install path.
func (c *L2) setAlloc(l mem.Line) []l2way {
	idx := int(uint64(l) & uint64(c.nsets-1))
	gi := idx / l2GroupSets
	g := c.groups[gi]
	if g == nil {
		span := l2GroupSets
		if span > c.nsets {
			span = c.nsets
		}
		g = make([]l2way, span*c.assoc)
		c.groups[gi] = g
	}
	base := (idx % l2GroupSets) * c.assoc
	return g[base : base+c.assoc]
}

// Contains reports a hit and refreshes recency.
//
//sim:hotpath
func (c *L2) Contains(l mem.Line) bool {
	s := c.set(l)
	for i := range s {
		if s[i].line == l && s[i].gen == c.gen {
			s[i].lru = c.stamp()
			return true
		}
	}
	return false
}

// Install brings l on chip, evicting LRU if needed, and returns the victim
// line (ok ⇒ something was displaced).
//
//sim:hotpath
func (c *L2) Install(l mem.Line) (victim mem.Line, evicted bool) {
	s := c.setAlloc(l)
	var slot *l2way
	for i := range s {
		if s[i].line == l && s[i].gen == c.gen {
			s[i].lru = c.stamp()
			return 0, false
		}
		if s[i].gen != c.gen && slot == nil {
			slot = &s[i]
		}
	}
	if slot == nil {
		slot = &s[0]
		for i := range s {
			if s[i].lru < slot.lru {
				slot = &s[i]
			}
		}
		victim, evicted = slot.line, true
	}
	*slot = l2way{line: l, gen: c.gen, lru: c.stamp()}
	return victim, evicted
}

// stamp advances the LRU clock and returns the new stamp.
//
//sim:hotpath
func (c *L2) stamp() uint32 {
	if c.tick == math.MaxUint32 {
		c.renumber()
	}
	c.tick++
	return c.tick
}

// renumber is L1.renumber for the L2: before the 32-bit tick would wrap,
// every allocated set's current-generation stamps are replaced by their
// rank within the set and the tick restarts at assoc, preserving every
// within-set recency order exactly.
func (c *L2) renumber() {
	rank := make([]uint32, c.assoc)
	for _, g := range c.groups {
		for base := 0; base < len(g); base += c.assoc {
			s := g[base : base+c.assoc]
			for i := range s {
				rank[i] = 1
				for j := range s {
					if s[j].gen == c.gen && s[j].lru < s[i].lru {
						rank[i]++
					}
				}
			}
			for i := range s {
				if s[i].gen == c.gen {
					s[i].lru = rank[i]
				}
			}
		}
	}
	c.tick = uint32(c.assoc)
}
