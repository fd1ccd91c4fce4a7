// Package sharerset provides the sparse sharer-set representation behind
// the directory's big-machine scaling: a limited-pointer inline array
// (hardware's "limited pointers" directory organization) that overflows
// into a compact per-proc bitmap drawn from a slab arena.
//
// The full-bit-vector entry it replaces (`sharers uint64`) capped the
// machine at 64 processors and charged every entry O(maxprocs) bits. A
// Set instead stores up to InlineCap sharer ids inline — the common case:
// Table 4 shows W signatures reach only a couple of nodes, and most lines
// have 1-2 sharers — and only a widely-shared line pays for a bitmap of
// ceil(nprocs/64) words. Overflow words are recycled through an Arena
// (one per directory module, backed by slab.Pool size classes), so warm
// machine reuse never re-allocates them.
//
// Determinism contract: iteration (ForEach, AppendMask) is ascending
// processor id in both representations — the inline array is kept sorted,
// and the bitmap is walked word-major, bit-minor. That matches the
// ascending port loops the directory used over the old bit-vector, which
// is what keeps the 8-proc golden hashes bit-identical across this
// representation change: sharer visit order reaches the event stream
// through invalidation sends.
package sharerset

import (
	"math/bits"

	"bulksc/internal/slab"
)

// InlineCap is the limited-pointer capacity: sets with at most this many
// sharers need no overflow storage. Four pointers cover the overwhelming
// majority of directory entries (see DESIGN.md §12 for the measured
// distribution) while keeping the Set header two words of payload.
const InlineCap = 4

// Arena supplies and recycles the overflow bitmap words for the Sets of
// one owner (a directory module). It is sized once per run by Configure;
// the underlying slab pool survives warm machine resets, so a steady-state
// sweep draws every overflow bitmap from recycled storage. The zero value
// is usable and sizes bitmaps for a 64-proc machine.
type Arena struct {
	words int
	pool  slab.Pool[uint64]
}

// Configure sizes future overflow bitmaps for nprocs processors. Must be
// called before any Set owned by this arena overflows; bitmaps handed out
// earlier keep their size, so reconfigure only via the owner's reset path
// (when every Set has been released).
func (a *Arena) Configure(nprocs int) {
	w := (nprocs + 63) / 64
	if w < 1 {
		w = 1
	}
	// Round up to a power of two so the words recycle through slab size
	// classes.
	for w&(w-1) != 0 {
		w++
	}
	a.words = w
}

// Words reports the configured bitmap size, for tests.
func (a *Arena) Words() int {
	if a.words == 0 {
		return 1
	}
	return a.words
}

func (a *Arena) get() []uint64 {
	return a.pool.Get(a.Words())
}

func (a *Arena) put(w []uint64) {
	a.pool.Put(w)
}

// Set is one sparse sharer set. The zero value is an empty set. A Set
// that overflowed holds arena storage until Clear or Only releases it;
// owners must route every teardown through one of those (the directory
// does so in remove and Reset) or the words leak out of the arena.
type Set struct {
	ovf    []uint64          // overflow bitmap; nil while inline
	inline [InlineCap]uint16 // sorted ascending; first n valid
	n      uint16            // sharer count (both representations)
}

// Count returns the number of sharers.
//
//sim:hotpath
func (s *Set) Count() int { return int(s.n) }

// Empty reports whether the set has no sharers.
//
//sim:hotpath
func (s *Set) Empty() bool { return s.n == 0 }

// Has reports whether proc p is a sharer.
//
//sim:hotpath
func (s *Set) Has(p int) bool {
	if s.ovf != nil {
		w := p >> 6
		if w >= len(s.ovf) {
			return false
		}
		return s.ovf[w]&(1<<uint(p&63)) != 0
	}
	for i := 0; i < int(s.n); i++ {
		if int(s.inline[i]) == p {
			return true
		}
	}
	return false
}

// Add inserts proc p, drawing overflow storage from a when the inline
// array fills. It reports whether p was newly added. p must be below the
// arena's configured processor capacity once the set overflows.
//
//sim:hotpath
func (s *Set) Add(p int, a *Arena) bool {
	if s.ovf != nil {
		w, b := p>>6, uint64(1)<<uint(p&63)
		if s.ovf[w]&b != 0 {
			return false
		}
		s.ovf[w] |= b
		s.n++
		return true
	}
	i := 0
	for ; i < int(s.n); i++ {
		if int(s.inline[i]) == p {
			return false
		}
		if int(s.inline[i]) > p {
			break
		}
	}
	if int(s.n) < InlineCap {
		// Insert at i, keeping the array sorted.
		copy(s.inline[i+1:int(s.n)+1], s.inline[i:int(s.n)])
		s.inline[i] = uint16(p)
		s.n++
		return true
	}
	// Overflow transition: spill the inline sharers plus p into a bitmap.
	w := a.get()
	for j := 0; j < InlineCap; j++ {
		q := int(s.inline[j])
		w[q>>6] |= 1 << uint(q&63)
	}
	w[p>>6] |= 1 << uint(p&63)
	s.ovf = w
	s.n++
	return true
}

// Remove deletes proc p and reports whether it was present. An overflowed
// set keeps its bitmap until Clear or Only — collapsing back to inline
// storage would make slot contents depend on removal history for no
// memory win (widely-shared lines stay widely shared).
//
//sim:hotpath
func (s *Set) Remove(p int) bool {
	if s.ovf != nil {
		w, b := p>>6, uint64(1)<<uint(p&63)
		if w >= len(s.ovf) || s.ovf[w]&b == 0 {
			return false
		}
		s.ovf[w] &^= b
		s.n--
		return true
	}
	for i := 0; i < int(s.n); i++ {
		if int(s.inline[i]) == p {
			copy(s.inline[i:], s.inline[i+1:int(s.n)])
			s.n--
			s.inline[s.n] = 0
			return true
		}
	}
	return false
}

// Only resets the set to exactly {p}, releasing any overflow storage to a.
// This is the directory's ownership-transfer step (commit expansion and
// read-exclusive grants): every other sharer is dropped in O(1).
//
//sim:hotpath
func (s *Set) Only(p int, a *Arena) {
	s.Clear(a)
	s.inline[0] = uint16(p)
	s.n = 1
}

// Clear empties the set, releasing any overflow storage to a.
//
//sim:hotpath
func (s *Set) Clear(a *Arena) {
	if s.ovf != nil {
		a.put(s.ovf)
		s.ovf = nil
	}
	s.inline = [InlineCap]uint16{}
	s.n = 0
}

// ForEach visits every sharer in ascending proc-id order.
func (s *Set) ForEach(f func(p int)) {
	if s.ovf != nil {
		for w, word := range s.ovf {
			for word != 0 {
				f(w<<6 + bits.TrailingZeros64(word))
				word &= word - 1
			}
		}
		return
	}
	for i := 0; i < int(s.n); i++ {
		f(int(s.inline[i]))
	}
}

// Mask returns the sharers as a 64-bit vector — the legacy full-bit-vector
// view, valid only for machines of at most 64 processors (higher proc ids
// are truncated). Retained for directory state inspection in tests.
func (s *Set) Mask() uint64 {
	if s.ovf != nil {
		return s.ovf[0]
	}
	var m uint64
	for i := 0; i < int(s.n); i++ {
		m |= 1 << uint(s.inline[i])
	}
	return m
}

// Overflowed reports whether the set left inline representation, for tests
// and stats.
func (s *Set) Overflowed() bool { return s.ovf != nil }

// Dense is a flat per-proc bitmap used as commit-expansion scratch: the
// invalidation list accumulated across all matching directory entries
// before fan-out. Unlike Set it has no sparse mode — one Dense per
// directory module, sized once per run, reused by every expansion.
type Dense struct {
	words []uint64
	n     int // set-bit count
}

// Configure sizes the bitmap for nprocs processors, reusing storage.
func (d *Dense) Configure(nprocs int) {
	w := (nprocs + 63) / 64
	if w < 1 {
		w = 1
	}
	if cap(d.words) < w {
		d.words = make([]uint64, w)
	}
	d.words = d.words[:w]
	clear(d.words)
	d.n = 0
}

// Reset empties the bitmap, retaining storage.
func (d *Dense) Reset() {
	clear(d.words)
	d.n = 0
}

// Empty reports whether no proc is marked.
//
//sim:hotpath
func (d *Dense) Empty() bool { return d.n == 0 }

// Add marks proc p.
//
//sim:hotpath
func (d *Dense) Add(p int) {
	w, b := p>>6, uint64(1)<<uint(p&63)
	if d.words[w]&b == 0 {
		d.words[w] |= b
		d.n++
	}
}

// AddSetExcept marks every sharer of s other than except. It is the
// Table 1 "every other sharer joins the invalidation list" step, written
// as a direct bitmap walk so the hot commit-expansion loop creates no
// per-entry closure.
//
//sim:hotpath
func (d *Dense) AddSetExcept(s *Set, except int) {
	if s.ovf != nil {
		for w, word := range s.ovf {
			for word != 0 {
				p := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if p != except {
					d.Add(p)
				}
			}
		}
		return
	}
	for i := 0; i < int(s.n); i++ {
		if p := int(s.inline[i]); p != except {
			d.Add(p)
		}
	}
}

// ForEach visits every marked proc in ascending order.
func (d *Dense) ForEach(f func(p int)) {
	for w, word := range d.words {
		for word != 0 {
			f(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}
