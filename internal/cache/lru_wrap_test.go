package cache

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"bulksc/internal/mem"
)

// TestWayLayout pins the tag-array record sizes: a 16-byte way puts a
// 4-way L1 set in one 64-byte line and an 8-way L2 set in two.
func TestWayLayout(t *testing.T) {
	if got := unsafe.Sizeof(Way{}); got != 16 {
		t.Errorf("sizeof(Way) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(l2way{}); got != 16 {
		t.Errorf("sizeof(l2way) = %d, want 16", got)
	}
}

// nearWrap is where the wrap tests start the LRU clock: a few hundred
// stamps before the 32-bit tick would overflow.
const nearWrap = math.MaxUint32 - 300

// advanceTick is the test hook that moves a cache's LRU clock forward to
// t. A forward jump keeps every existing stamp below every future one, so
// recency order is unchanged; it lets a short stream cross the wrap.
func (c *L1) advanceTick(t uint32) {
	if t > c.tick {
		c.tick = t
	}
}

func (c *L2) advanceTick(t uint32) {
	if t > c.tick {
		c.tick = t
	}
}

// refL1 is the reference model: the L1 replacement logic with 64-bit
// stamps, which never wrap.
type refL1 struct {
	nsets, assoc int
	ways         []refWay
	tick         uint64
}

type refWay struct {
	line  mem.Line
	state LineState
	pin   uint8
	lru   uint64
}

func (r *refL1) set(l mem.Line) []refWay {
	idx := int(uint64(l) & uint64(r.nsets-1))
	return r.ways[idx*r.assoc : (idx+1)*r.assoc]
}

func (r *refL1) probe(l mem.Line) *refWay {
	s := r.set(l)
	for i := range s {
		if s[i].line == l && s[i].state != Invalid {
			return &s[i]
		}
	}
	return nil
}

func (r *refL1) access(l mem.Line) bool {
	w := r.probe(l)
	if w != nil {
		r.tick++
		w.lru = r.tick
	}
	return w != nil
}

func (r *refL1) insert(l mem.Line, st LineState) (victim refWay, ok bool) {
	if w := r.probe(l); w != nil {
		w.state = st
		r.tick++
		w.lru = r.tick
		return refWay{}, true
	}
	s := r.set(l)
	var slot *refWay
	for i := range s {
		if s[i].state == Invalid {
			slot = &s[i]
			break
		}
	}
	if slot == nil {
		for i := range s {
			if s[i].pin == 0 && (slot == nil || s[i].lru < slot.lru) {
				slot = &s[i]
			}
		}
	}
	if slot == nil {
		return refWay{}, false
	}
	victim = *slot
	r.tick++
	*slot = refWay{line: l, state: st, lru: r.tick}
	return victim, true
}

func (r *refL1) invalidate(l mem.Line) LineState {
	if w := r.probe(l); w != nil {
		st := w.state
		*w = refWay{}
		return st
	}
	return Invalid
}

func (r *refL1) pin(l mem.Line, slot int) bool {
	w := r.probe(l)
	if w != nil {
		w.pin |= 1 << uint(slot)
	}
	return w != nil
}

func (r *refL1) unpin(l mem.Line, slot int) {
	if w := r.probe(l); w != nil {
		w.pin &^= 1 << uint(slot)
	}
}

// TestL1LRUExactAcrossWrap runs a seeded Insert/Access/Invalidate/Pin
// stream through an L1 whose clock repeatedly crosses the 32-bit wrap and
// through the 64-bit reference: every hit, victim and final way must
// match.
func TestL1LRUExactAcrossWrap(t *testing.T) {
	const nsets, assoc, nlines = 16, 4, 16 * 7
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewL1(nsets, assoc)
		ref := &refL1{nsets: nsets, assoc: assoc, ways: make([]refWay, nsets*assoc)}
		wraps := 0
		for op := 0; op < 20000; op++ {
			if op%1000 == 0 {
				c.advanceTick(nearWrap)
			}
			before := c.tick
			l := mem.Line(rng.Intn(nlines))
			switch k := rng.Intn(10); {
			case k < 4:
				w := c.Access(l)
				if hit := ref.access(l); hit != (w != nil) {
					t.Fatalf("seed %d op %d: Access(%d) hit=%v, ref %v", seed, op, l, w != nil, hit)
				}
			case k < 7:
				st := LineState(1 + rng.Intn(3))
				v, ok := c.Insert(l, st)
				rv, rok := ref.insert(l, st)
				if ok != rok || v.Line != rv.line || v.State != rv.state || v.PinMask != rv.pin {
					t.Fatalf("seed %d op %d: Insert(%d) = (%v %v %b, %v), ref (%v %v %b, %v)",
						seed, op, l, v.Line, v.State, v.PinMask, ok, rv.line, rv.state, rv.pin, rok)
				}
			case k < 8:
				if st, rst := c.Invalidate(l), ref.invalidate(l); st != rst {
					t.Fatalf("seed %d op %d: Invalidate(%d) = %v, ref %v", seed, op, l, st, rst)
				}
			case k < 9:
				slot := rng.Intn(8)
				if ok, rok := c.Pin(l, slot), ref.pin(l, slot); ok != rok {
					t.Fatalf("seed %d op %d: Pin(%d) = %v, ref %v", seed, op, l, ok, rok)
				}
			default:
				slot := rng.Intn(8)
				c.Unpin(l, slot)
				ref.unpin(l, slot)
			}
			if c.tick < before {
				wraps++
			}
		}
		if wraps < 10 {
			t.Fatalf("seed %d: stream crossed the wrap %d times, want ≥ 10", seed, wraps)
		}
		for i, w := range c.ways {
			r := ref.ways[i]
			if w.Line != r.line || w.State != r.state || w.PinMask != r.pin {
				t.Fatalf("seed %d: way %d = (%v %v %b), ref (%v %v %b)", seed, i, w.Line, w.State, w.PinMask, r.line, r.state, r.pin)
			}
		}
	}
}

// refL2 is the 64-bit-stamp reference for the L2 tag store.
type refL2 struct {
	nsets, assoc int
	line         []mem.Line
	valid        []bool
	lru          []uint64
	tick         uint64
}

func (r *refL2) contains(l mem.Line) bool {
	base := int(uint64(l)&uint64(r.nsets-1)) * r.assoc
	for i := base; i < base+r.assoc; i++ {
		if r.valid[i] && r.line[i] == l {
			r.tick++
			r.lru[i] = r.tick
			return true
		}
	}
	return false
}

func (r *refL2) install(l mem.Line) (mem.Line, bool) {
	base := int(uint64(l)&uint64(r.nsets-1)) * r.assoc
	slot := -1
	for i := base; i < base+r.assoc; i++ {
		if r.valid[i] && r.line[i] == l {
			r.tick++
			r.lru[i] = r.tick
			return 0, false
		}
		if !r.valid[i] && slot < 0 {
			slot = i
		}
	}
	var victim mem.Line
	evicted := false
	if slot < 0 {
		slot = base
		for i := base; i < base+r.assoc; i++ {
			if r.lru[i] < r.lru[slot] {
				slot = i
			}
		}
		victim, evicted = r.line[slot], true
	}
	r.tick++
	r.line[slot], r.valid[slot], r.lru[slot] = l, true, r.tick
	return victim, evicted
}

func (r *refL2) reset() {
	clear(r.valid)
	r.tick = 0
}

// TestL2LRUExactAcrossWrap is the L2 counterpart: Contains/Install with
// occasional Reset (stale-generation ways must not take part in the
// renumbering), clock repeatedly crossing the wrap, against the 64-bit
// reference.
func TestL2LRUExactAcrossWrap(t *testing.T) {
	const nsets, assoc, nlines = 16, 8, 16 * 12
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewL2(nsets, assoc)
		ref := &refL2{nsets: nsets, assoc: assoc, line: make([]mem.Line, nsets*assoc),
			valid: make([]bool, nsets*assoc), lru: make([]uint64, nsets*assoc)}
		wraps := 0
		for op := 0; op < 20000; op++ {
			if op%1000 == 0 {
				c.advanceTick(nearWrap)
			}
			if op%7000 == 6999 {
				c.Reset()
				ref.reset()
			}
			before := c.tick
			l := mem.Line(rng.Intn(nlines))
			if rng.Intn(2) == 0 {
				if hit, rhit := c.Contains(l), ref.contains(l); hit != rhit {
					t.Fatalf("seed %d op %d: Contains(%d) = %v, ref %v", seed, op, l, hit, rhit)
				}
			} else {
				v, ev := c.Install(l)
				rv, rev := ref.install(l)
				if v != rv || ev != rev {
					t.Fatalf("seed %d op %d: Install(%d) = (%v, %v), ref (%v, %v)", seed, op, l, v, ev, rv, rev)
				}
			}
			if c.tick < before {
				wraps++
			}
		}
		if wraps < 10 {
			t.Fatalf("seed %d: stream crossed the wrap %d times, want ≥ 10", seed, wraps)
		}
	}
}
