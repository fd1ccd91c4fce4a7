package lineset

import (
	"math/rand"
	"testing"

	"bulksc/internal/mem"
)

func TestSetBasics(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Has(5) {
		t.Fatal("zero set not empty")
	}
	if !s.Add(5) || s.Add(5) {
		t.Fatal("Add newness wrong")
	}
	if !s.Has(5) || s.Has(6) {
		t.Fatal("Has wrong")
	}
	if !s.Add(0) || !s.Has(0) {
		t.Fatal("line 0 must be storable")
	}
	if s.Len() != 2 {
		t.Fatalf("len=%d want 2", s.Len())
	}
	if !s.Remove(5) || s.Remove(5) || s.Has(5) {
		t.Fatal("Remove wrong")
	}
	s.Reset()
	if s.Len() != 0 || s.Has(0) {
		t.Fatal("Reset did not empty")
	}
}

// TestSetAgainstMap cross-checks the open-addressed set against a Go map
// under a random add/remove/has workload, including growth and heavy
// backward-shift deletion.
func TestSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s Set
	ref := map[mem.Line]struct{}{}
	for op := 0; op < 200000; op++ {
		l := mem.Line(rng.Intn(500))
		switch rng.Intn(3) {
		case 0:
			_, had := ref[l]
			ref[l] = struct{}{}
			if got := s.Add(l); got == had {
				t.Fatalf("op %d: Add(%d)=%v, ref had=%v", op, l, got, had)
			}
		case 1:
			_, had := ref[l]
			delete(ref, l)
			if got := s.Remove(l); got != had {
				t.Fatalf("op %d: Remove(%d)=%v, ref had=%v", op, l, got, had)
			}
		default:
			_, had := ref[l]
			if got := s.Has(l); got != had {
				t.Fatalf("op %d: Has(%d)=%v, ref=%v", op, l, got, had)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("op %d: len=%d ref=%d", op, s.Len(), len(ref))
		}
	}
	// Full-content check via ForEach.
	seen := map[mem.Line]struct{}{}
	s.ForEach(func(l mem.Line) { seen[l] = struct{}{} })
	if len(seen) != len(ref) {
		t.Fatalf("ForEach saw %d lines, ref %d", len(seen), len(ref))
	}
	for l := range ref {
		if _, ok := seen[l]; !ok {
			t.Fatalf("ForEach missed %d", l)
		}
	}
}

func TestSetDeterministicIteration(t *testing.T) {
	build := func() []mem.Line {
		var s Set
		for i := 0; i < 300; i++ {
			s.Add(mem.Line(i * 7))
		}
		for i := 0; i < 300; i += 3 {
			s.Remove(mem.Line(i * 7))
		}
		return s.AppendTo(nil)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration order not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSetResetKeepsCapacity(t *testing.T) {
	var s Set
	for i := 0; i < 1000; i++ {
		s.Add(mem.Line(i))
	}
	capBefore := len(s.slots)
	s.Reset()
	for i := 0; i < 1000; i++ {
		s.Add(mem.Line(i))
	}
	if len(s.slots) != capBefore {
		t.Fatalf("Reset lost capacity: %d -> %d", capBefore, len(s.slots))
	}
}

func TestMapAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m Map
	ref := map[mem.Addr]uint64{}
	for op := 0; op < 100000; op++ {
		a := mem.Addr(rng.Intn(400) * 8)
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			ref[a] = v
			m.Put(a, v)
		} else {
			want, had := ref[a]
			got, ok := m.Get(a)
			if ok != had || (ok && got != want) {
				t.Fatalf("op %d: Get(%d)=(%d,%v) want (%d,%v)", op, a, got, ok, want, had)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: len=%d ref=%d", op, m.Len(), len(ref))
		}
	}
	m.ForEach(func(a mem.Addr, v uint64) {
		if ref[a] != v {
			t.Fatalf("ForEach %d=%d, ref %d", a, v, ref[a])
		}
		delete(ref, a)
	})
	if len(ref) != 0 {
		t.Fatalf("ForEach missed %d entries", len(ref))
	}
}

// TestMapGetOrPutAgainstMap cross-checks GetOrPut against a Go map under
// a mix with Put, through growth and Reset.
func TestMapGetOrPutAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var m Map
	ref := map[mem.Addr]uint64{}
	for op := 0; op < 100000; op++ {
		a := mem.Addr(rng.Intn(600) * 8)
		v := rng.Uint64()
		switch rng.Intn(20) {
		case 0:
			ref[a] = v
			m.Put(a, v)
		case 1:
			if op%500 == 1 {
				m.Reset()
				clear(ref)
			}
		default:
			want, had := ref[a]
			if !had {
				want = v
				ref[a] = v
			}
			got, ok := m.GetOrPut(a, v)
			if ok != had || got != want {
				t.Fatalf("op %d: GetOrPut(%d)=(%d,%v) want (%d,%v)", op, a, got, ok, want, had)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: len=%d ref=%d", op, m.Len(), len(ref))
		}
	}
	for a, want := range ref {
		if got, ok := m.Get(a); !ok || got != want {
			t.Fatalf("final Get(%d)=(%d,%v) want %d", a, got, ok, want)
		}
	}
}

func TestMapAddrZero(t *testing.T) {
	var m Map
	m.Put(0, 99)
	if v, ok := m.Get(0); !ok || v != 99 {
		t.Fatal("addr 0 must be storable")
	}
}

// TestMapResetClearsValues: Reset must scrub the value table, not just the
// keys. Maps are recycled across chunks; a stale value left behind in a
// slot is one chunk's speculative data waiting to leak into the next.
func TestMapResetClearsValues(t *testing.T) {
	var m Map
	for i := 0; i < 64; i++ {
		m.Put(mem.Addr(i*8), 0xdead0000+uint64(i))
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	for i, v := range m.vals {
		if v != 0 {
			t.Fatalf("vals[%d] = %#x after Reset; stale value survived", i, v)
		}
	}
	// The map must still work after recycling, with no ghosts.
	for i := 0; i < 64; i++ {
		if _, ok := m.Get(mem.Addr(i * 8)); ok {
			t.Fatalf("Get(%d) hit after Reset", i*8)
		}
	}
	m.Put(8, 7)
	if v, ok := m.Get(8); !ok || v != 7 {
		t.Fatal("Put/Get broken after Reset")
	}
}

// TestMapRecyclingNeverLeaks drives a Map through many chunk-like
// fill/Reset cycles with adversarial overlapping address ranges and checks
// each generation only ever observes its own writes — the pool-recycling
// property the simulator's speculative write buffers rely on.
func TestMapRecyclingNeverLeaks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var m Map
	for gen := 0; gen < 200; gen++ {
		ref := map[mem.Addr]uint64{}
		// Shifting, partially-overlapping footprint each generation.
		base := rng.Intn(100)
		for op := 0; op < 50; op++ {
			a := mem.Addr((base + rng.Intn(60)) * 8)
			if rng.Intn(3) > 0 {
				v := uint64(gen)<<32 | rng.Uint64()&0xffffffff
				ref[a] = v
				m.Put(a, v)
				continue
			}
			want, had := ref[a]
			got, ok := m.Get(a)
			if ok != had || (ok && got != want) {
				t.Fatalf("gen %d: Get(%d)=(%#x,%v) want (%#x,%v)", gen, a, got, ok, want, had)
			}
			if ok && got>>32 != uint64(gen) {
				t.Fatalf("gen %d observed value %#x from generation %d", gen, got, got>>32)
			}
		}
		m.ForEach(func(a mem.Addr, v uint64) {
			if ref[a] != v {
				t.Fatalf("gen %d: ForEach %d=%#x, ref %#x", gen, a, v, ref[a])
			}
		})
		m.Reset()
	}
}
