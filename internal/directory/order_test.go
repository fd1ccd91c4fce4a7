package directory

import (
	"math/rand"
	"slices"
	"testing"

	"bulksc/internal/chunk"
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/sig"
)

// seqPort logs, machine-wide, which proc each W-signature delivery reaches,
// so two modules' fan-out sequences can be compared.
type seqPort struct {
	*fakePort
	id  int
	log *[]int
}

func (p seqPort) ApplyCommit(c *Commit) { *p.log = append(*p.log, p.id) }

// orderModule is one module under TestExpansionIgnoresEntryOrder with the
// log of its fan-out deliveries.
type orderModule struct {
	h   *dirHarness
	log []int
}

func newOrderModule(procs int) *orderModule {
	m := &orderModule{h: newDirHarness(procs)}
	m.attach()
	return m
}

func (m *orderModule) attach() {
	ports := make([]CachePort, len(m.h.ports))
	for i, fp := range m.h.ports {
		ports[i] = seqPort{fakePort: fp, id: i, log: &m.log}
	}
	m.h.dir.AttachPorts(ports)
}

// snapshot is everything expansion can change: the fan-out sequence, the
// lookup and update counters, and every line's sharing state.
func (m *orderModule) snapshot(lines []mem.Line) []uint64 {
	st := m.h.st
	out := []uint64{st.DirLookups, st.DirUnnecessary, st.DirUpdates, st.DirBadUpdates, st.DirCacheEvicts}
	for _, p := range m.log {
		out = append(out, uint64(p))
	}
	for _, l := range lines {
		sharers, dirty, owner := m.h.dir.State(l)
		d := uint64(0)
		if dirty {
			d = 1
		}
		out = append(out, sharers, d, uint64(owner))
	}
	return out
}

// TestExpansionIgnoresEntryOrder holds the invariant that lets a module
// keep its entries in first-touch order with retained capacity: nothing
// that reaches simulated state depends on the order entries sit in a
// bucket list or the table. Two modules get the same entries and sharer
// sets, inserted in different orders; one of them was first grown by a
// larger population and Reset. The same Bloom commits and Wpriv
// propagations — whose signatures alias lines the chunk did not write —
// must then produce the same fan-out sequence, the same lookup and update
// counts and the same entry states, and under a small directory cache the
// same displacement victims.
func TestExpansionIgnoresEntryOrder(t *testing.T) {
	const procs = 6
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// 16 buckets of 20 lines each: l = base + 512k shares its bank-0
		// bits with every line of the same base and k parity, and its
		// bank-1 bits with every line of the same k and base>>6, so W
		// aliases plenty of unwritten entries.
		var lines []mem.Line
		for i := 0; i < 16; i++ {
			base := rng.Intn(expansionBuckets)
			for k := 0; k < 20; k++ {
				l := mem.Line(base + expansionBuckets*k)
				if !slices.Contains(lines, l) {
					lines = append(lines, l)
				}
			}
		}
		type state struct {
			sharers []int
			owner   int // -1 when clean
		}
		init := make(map[mem.Line]state)
		for _, l := range lines {
			var s state
			for p := 0; p < procs; p++ {
				if rng.Intn(3) == 0 {
					s.sharers = append(s.sharers, p)
				}
			}
			s.owner = -1
			if len(s.sharers) == 1 && rng.Intn(2) == 0 {
				s.owner = s.sharers[0]
			}
			init[l] = s
		}
		populate := func(d *Directory, order []mem.Line) {
			for _, l := range order {
				e := d.getOrCreate(l)
				for _, p := range init[l].sharers {
					e.sharers.Add(p, &d.shar)
				}
				if o := init[l].owner; o >= 0 {
					e.dirty, e.owner = true, uint16(o)
				}
			}
		}

		a := newOrderModule(procs)
		populate(a.h.dir, lines)

		b := newOrderModule(procs)
		for l := mem.Line(0); l < 3000; l++ {
			e := b.h.dir.getOrCreate(l*7 + 1)
			e.sharers.Add(int(l)%procs, &b.h.dir.shar)
		}
		b.h.dir.Reset()
		b.attach()
		shuffled := slices.Clone(lines)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		populate(b.h.dir, shuffled)

		aliased := 0
		for step := 0; step < 40; step++ {
			proc := rng.Intn(procs)
			w := sig.NewBloom()
			trueW := &lineset.Set{}
			for i := 0; i < 1+rng.Intn(40); i++ {
				l := lines[rng.Intn(len(lines))]
				w.Add(l)
				trueW.Add(l)
			}
			for _, l := range lines {
				if w.MayContain(l) && !trueW.Has(l) {
					aliased++
				}
			}
			priv := step%4 == 3
			for _, m := range []*orderModule{a, b} {
				c := &Commit{Tok: 1, Proc: proc, W: w, TrueW: trueW}
				if priv {
					m.h.dir.ProcessPrivCommit(c, chunk.Hold{})
				} else {
					m.h.dir.ProcessCommit(c)
				}
				m.h.eng.Run(nil)
			}
			if got, want := b.snapshot(lines), a.snapshot(lines); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (priv=%v): modules diverge:\n in order %v\n shuffled %v", seed, step, priv, want, got)
			}
		}
		if aliased == 0 || a.h.st.DirUpdates == 0 || a.h.st.DirBadUpdates == 0 {
			t.Fatalf("seed %d: weak case: %d aliased lines, %d updates, %d bad updates",
				seed, aliased, a.h.st.DirUpdates, a.h.st.DirBadUpdates)
		}

		// Touch every line in one order on both modules so their LRU order
		// agrees, then cap them: each new line displaces one victim.
		touch := slices.Clone(lines)
		rng.Shuffle(len(touch), func(i, j int) { touch[i], touch[j] = touch[j], touch[i] })
		for _, m := range []*orderModule{a, b} {
			for _, l := range touch {
				m.h.dir.withEntry(l, func(*entry) {})
			}
			m.h.dir.MaxEntries = len(lines) - 10
		}
		for i := 0; i < 30; i++ {
			l := mem.Line(1<<20 + i)
			all := append(slices.Clone(lines), l)
			for _, m := range []*orderModule{a, b} {
				m.h.dir.withEntry(l, func(*entry) {})
				m.h.eng.Run(nil)
			}
			if got, want := b.snapshot(all), a.snapshot(all); !slices.Equal(got, want) {
				t.Fatalf("seed %d: displacement %d diverges:\n in order %v\n shuffled %v", seed, i, want, got)
			}
		}
		if a.h.st.DirCacheEvicts == 0 {
			t.Fatalf("seed %d: no displacement", seed)
		}
	}
}
