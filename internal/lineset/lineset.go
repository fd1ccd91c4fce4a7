// Package lineset provides the open-addressed line-set and word-map
// structures backing the simulator's hot per-chunk state (exact R/W/Wpriv
// sets, speculative write buffers) and its exact-signature encoding.
//
// Both structures are designed for the chunk churn of squash-heavy
// workloads: linear probing over flat []uint64 slots (no per-entry
// allocation, no bucket pointers), tombstone-free deletion by backward
// shifting, and Reset() that zeroes in place instead of reallocating, so a
// pooled chunk's sets reach steady state with no allocation at all.
// Iteration order is slot order — deterministic for a fixed insertion
// history, unlike Go maps — which keeps whole-system runs bit-reproducible.
// Sets and maps optionally draw their backing arrays from a slab.Pool
// (UseArena): growth returns the outgrown array to the pool and pulls the
// next size from it, and Release returns the whole table at
// warm-machine-reuse drain time. Capacity trajectories are unchanged —
// the pool only recycles storage, never sizes — so arena use is invisible
// to the simulation (slot order depends on capacity and contents alone).
package lineset

import (
	"bulksc/internal/mem"
	"bulksc/internal/slab"
)

// minSlots is the initial table size (power of two). Most chunks touch a
// few dozen lines; 16 slots avoids growth for small chunks while costing
// 128 bytes.
const minSlots = 16

// hashmul is the 64-bit golden-ratio multiplier (Fibonacci hashing).
const hashmul = 0x9e3779b97f4a7c15

// Set is an open-addressed set of cache lines. The zero value is an empty
// set ready for use. Slots store line+1 so 0 marks an empty slot.
type Set struct {
	slots []uint64
	n     int
	//lint:poolsafe machine-lifetime recycler wiring (UseArena); storage source only, never simulated state
	arena *slab.Pool[uint64]
}

// UseArena makes the set draw and return its backing array through a
// (typically machine-lifetime) slab pool. Must be set before first Add;
// a nil pool means plain allocation.
func (s *Set) UseArena(a *slab.Pool[uint64]) { s.arena = a }

// Release empties the set and returns its backing array to the arena (if
// any), restoring the zero-value cold shape. Used when draining pooled
// chunks at warm machine reuse; the caller asserts nothing aliases the
// table (Set never hands out its slots).
func (s *Set) Release() {
	if s.slots != nil {
		s.arena.Put(s.slots)
		s.slots = nil
	}
	s.n = 0
}

func hashIdx(key uint64, mask int) int {
	return int((key*hashmul)>>33) & mask
}

// Len returns the number of lines in the set.
func (s *Set) Len() int { return s.n }

// Has reports whether l is in the set.
//
//sim:hotpath
func (s *Set) Has(l mem.Line) bool {
	if s.n == 0 {
		return false
	}
	mask := len(s.slots) - 1
	k := uint64(l) + 1
	for i := hashIdx(k, mask); ; i = (i + 1) & mask {
		v := s.slots[i]
		if v == k {
			return true
		}
		if v == 0 {
			return false
		}
	}
}

// Add inserts l and reports whether it was newly added.
//
//sim:hotpath
func (s *Set) Add(l mem.Line) bool {
	if s.slots == nil {
		s.slots = s.arena.Get(minSlots)
	} else if s.n*4 >= len(s.slots)*3 {
		s.grow()
	}
	mask := len(s.slots) - 1
	k := uint64(l) + 1
	for i := hashIdx(k, mask); ; i = (i + 1) & mask {
		v := s.slots[i]
		if v == k {
			return false
		}
		if v == 0 {
			s.slots[i] = k
			s.n++
			return true
		}
	}
}

// AtGrowth reports whether the next Add grows the table, whether or not
// its line is present.
//
//sim:hotpath
func (s *Set) AtGrowth() bool { return s.slots != nil && s.n*4 >= len(s.slots)*3 }

// Remove deletes l, reporting whether it was present. Deletion is
// tombstone-free: the probe chain after the vacated slot is compacted by
// backward shifting, so lookups never degrade.
//
//sim:hotpath
func (s *Set) Remove(l mem.Line) bool {
	if s.n == 0 {
		return false
	}
	mask := len(s.slots) - 1
	k := uint64(l) + 1
	i := hashIdx(k, mask)
	for {
		v := s.slots[i]
		if v == 0 {
			return false
		}
		if v == k {
			break
		}
		i = (i + 1) & mask
	}
	s.slots[i] = 0
	s.n--
	// Backward-shift compaction.
	j := i
	for {
		j = (j + 1) & mask
		v := s.slots[j]
		if v == 0 {
			return true
		}
		home := hashIdx(v, mask)
		if (j-home)&mask >= (j-i)&mask {
			s.slots[i] = v
			s.slots[j] = 0
			i = j
		}
	}
}

// Reset empties the set in place, keeping the allocated table.
//
//sim:hotpath
func (s *Set) Reset() {
	if s.n == 0 {
		return
	}
	clear(s.slots)
	s.n = 0
}

// ForEach calls f for every line, in slot order (deterministic for a fixed
// insertion/removal history).
//
//sim:hotpath
func (s *Set) ForEach(f func(mem.Line)) {
	if s.n == 0 {
		return
	}
	for _, v := range s.slots {
		if v != 0 {
			f(mem.Line(v - 1))
		}
	}
}

// AppendTo appends the set's lines to dst in slot order and returns it.
//
//sim:hotpath
func (s *Set) AppendTo(dst []mem.Line) []mem.Line {
	if s.n == 0 {
		return dst
	}
	for _, v := range s.slots {
		if v != 0 {
			dst = append(dst, mem.Line(v-1))
		}
	}
	return dst
}

func (s *Set) grow() {
	old := s.slots
	s.slots = s.arena.Get(len(old) * 2)
	mask := len(s.slots) - 1
	for _, k := range old {
		if k == 0 {
			continue
		}
		for i := hashIdx(k, mask); ; i = (i + 1) & mask {
			if s.slots[i] == 0 {
				s.slots[i] = k
				break
			}
		}
	}
	s.arena.Put(old)
}

// NewSetOf returns a set holding the given lines; a convenience for tests
// and one-line commits.
func NewSetOf(lines ...mem.Line) *Set {
	s := &Set{}
	for _, l := range lines {
		s.Add(l)
	}
	return s
}

// Map is an open-addressed map from word-aligned addresses to 64-bit
// values — the chunk's speculative write buffer. The zero value is an empty
// map ready for use. Keys store addr+1 so 0 marks an empty slot.
type Map struct {
	keys []uint64
	vals []uint64
	n    int
	//lint:poolsafe machine-lifetime recycler wiring (UseArena); storage source only, never simulated state
	arena *slab.Pool[uint64]
}

// UseArena makes the map draw and return its backing arrays through a
// (typically machine-lifetime) slab pool; see Set.UseArena.
func (m *Map) UseArena(a *slab.Pool[uint64]) { m.arena = a }

// Release empties the map and returns its backing arrays to the arena
// (if any), restoring the zero-value cold shape; see Set.Release.
func (m *Map) Release() {
	if m.keys != nil {
		m.arena.Put(m.keys)
		m.arena.Put(m.vals)
		m.keys = nil
		m.vals = nil
	}
	m.n = 0
}

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

// Get returns the value stored for a.
//
//sim:hotpath
func (m *Map) Get(a mem.Addr) (uint64, bool) {
	if m.n == 0 {
		return 0, false
	}
	mask := len(m.keys) - 1
	k := uint64(a) + 1
	for i := hashIdx(k, mask); ; i = (i + 1) & mask {
		v := m.keys[i]
		if v == k {
			return m.vals[i], true
		}
		if v == 0 {
			return 0, false
		}
	}
}

// Put stores val for a, overwriting any previous value.
//
//sim:hotpath
func (m *Map) Put(a mem.Addr, val uint64) {
	if m.keys == nil {
		m.keys = m.arena.Get(minSlots)
		m.vals = m.arena.Get(minSlots)
	} else if m.n*4 >= len(m.keys)*3 {
		m.grow()
	}
	mask := len(m.keys) - 1
	k := uint64(a) + 1
	for i := hashIdx(k, mask); ; i = (i + 1) & mask {
		v := m.keys[i]
		if v == k {
			m.vals[i] = val
			return
		}
		if v == 0 {
			m.keys[i] = k
			m.vals[i] = val
			m.n++
			return
		}
	}
}

// GetOrPut returns the value stored for a, reporting true; if a is absent
// it stores val and returns it, reporting false. Either way it costs one
// probe, where Get followed by Put costs two.
//
//sim:hotpath
func (m *Map) GetOrPut(a mem.Addr, val uint64) (uint64, bool) {
	if m.keys == nil {
		m.keys = m.arena.Get(minSlots)
		m.vals = m.arena.Get(minSlots)
	} else if m.n*4 >= len(m.keys)*3 {
		m.grow()
	}
	mask := len(m.keys) - 1
	k := uint64(a) + 1
	for i := hashIdx(k, mask); ; i = (i + 1) & mask {
		v := m.keys[i]
		if v == k {
			return m.vals[i], true
		}
		if v == 0 {
			m.keys[i] = k
			m.vals[i] = val
			m.n++
			return val, false
		}
	}
}

// Reset empties the map in place, keeping the allocated tables. Values are
// cleared along with the keys: Maps are pooled and recycled across chunks
// (the speculative write buffer), and a stale value surviving in a slot
// whose key is later re-occupied by a different chunk would silently leak
// one chunk's speculative data into another's if any probe path ever reads
// a value before fully matching its key.
//
//sim:hotpath
func (m *Map) Reset() {
	if m.n == 0 {
		return
	}
	clear(m.keys)
	clear(m.vals)
	m.n = 0
}

// ForEach calls f for every (addr, value) pair, in slot order.
//
//sim:hotpath
func (m *Map) ForEach(f func(a mem.Addr, v uint64)) {
	if m.n == 0 {
		return
	}
	for i, k := range m.keys {
		if k != 0 {
			f(mem.Addr(k-1), m.vals[i])
		}
	}
}

func (m *Map) grow() {
	oldK, oldV := m.keys, m.vals
	m.keys = m.arena.Get(len(oldK) * 2)
	m.vals = m.arena.Get(len(oldK) * 2)
	mask := len(m.keys) - 1
	for j, k := range oldK {
		if k == 0 {
			continue
		}
		for i := hashIdx(k, mask); ; i = (i + 1) & mask {
			if m.keys[i] == 0 {
				m.keys[i] = k
				m.vals[i] = oldV[j]
				break
			}
		}
	}
	m.arena.Put(oldK)
	m.arena.Put(oldV)
}
