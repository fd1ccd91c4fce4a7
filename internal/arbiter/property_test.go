package arbiter

import (
	"math/rand"
	"testing"

	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sig"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
)

// TestPropertySerializationInvariant drives the arbiter with randomized
// commit requests (using exact signatures, so every intersection verdict
// is precise) and checks the CReq2 invariant the whole design rests on:
// at every instant, the write sets of the currently-committing chunks are
// pairwise disjoint, and a request is only granted when both its R and W
// sets are disjoint from every pending W.
func TestPropertySerializationInvariant(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		st := stats.New()
		nw := network.New(eng, st)
		var order uint64
		arb := New(0, eng, nw, st, &order)

		// pending tracks the exact W sets of granted, not-yet-done chunks.
		pending := map[Token]*lineset.Set{}
		var nextDone []Token
		arb.ForwardW = func(tok Token, proc int, w sig.Signature, trueW *lineset.Set) {
			// Invariant 1: the new W set is disjoint from all pending.
			for other, set := range pending {
				trueW.ForEach(func(l mem.Line) {
					if set.Has(l) {
						t.Fatalf("seed %d: granted W overlaps pending token %d on line %v",
							seed, other, l)
					}
				})
			}
			pending[tok] = trueW
			// Complete after a random delay.
			nextDone = append(nextDone, tok)
			after(eng, sim.Time(5+rng.Intn(40)), func() {
				delete(pending, tok)
				arb.Done(tok)
			})
		}

		grants, denies := 0, 0
		for i := 0; i < 300; i++ {
			w := sig.NewExact()
			r := sig.NewExact()
			trueW := &lineset.Set{}
			trueR := &lineset.Set{}
			for j := 0; j < rng.Intn(4); j++ {
				l := mem.Line(rng.Intn(30))
				w.Add(l)
				trueW.Add(l)
			}
			for j := 0; j < 1+rng.Intn(6); j++ {
				l := mem.Line(rng.Intn(30))
				r.Add(l)
				trueR.Add(l)
			}
			req := &Request{
				Proc:   rng.Intn(8),
				W:      w,
				TrueW:  trueW,
				FetchR: func(cb func(sig.Signature)) { after(eng, 6, func() { cb(r) }) },
				Reply: func(granted bool, ord uint64) {
					if !granted {
						denies++
						return
					}
					grants++
					// Invariant 2: at grant time, R and W are disjoint
					// from every pending W (check against the shadow,
					// excluding the chunk's own entry which ForwardW may
					// have inserted already).
					for _, set := range pending {
						if set == nil {
							continue
						}
						same := set.Len() == trueW.Len()
						if same {
							trueW.ForEach(func(l mem.Line) {
								if !set.Has(l) {
									same = false
								}
							})
						}
						if same {
							continue // our own just-inserted entry
						}
						trueR.ForEach(func(l mem.Line) {
							if set.Has(l) {
								t.Fatalf("seed %d: grant with R overlapping a pending W (line %v)", seed, l)
							}
						})
						trueW.ForEach(func(l mem.Line) {
							if set.Has(l) {
								t.Fatalf("seed %d: grant with W overlapping a pending W (line %v)", seed, l)
							}
						})
					}
				},
			}
			after(eng, sim.Time(rng.Intn(15)), func() { arb.Request(req) })
			if rng.Intn(4) == 0 {
				eng.Run(nil)
			}
		}
		eng.Run(nil)
		if grants == 0 {
			t.Fatalf("seed %d: nothing was ever granted", seed)
		}
		if arb.Pending() != 0 {
			t.Fatalf("seed %d: %d W signatures leaked in the arbiter", seed, arb.Pending())
		}
		if st.CommitGrants != uint64(grants) || st.CommitDenies != uint64(denies) {
			t.Fatalf("seed %d: stats grants/denies %d/%d vs observed %d/%d",
				seed, st.CommitGrants, st.CommitDenies, grants, denies)
		}
	}
}

// TestPropertyCommitOrderIsTotalAndGapFree: orders handed out by the
// arbiter are strictly increasing and dense.
func TestPropertyCommitOrderIsTotalAndGapFree(t *testing.T) {
	eng := sim.NewEngine(3)
	st := stats.New()
	nw := network.New(eng, st)
	var order uint64
	arb := New(0, eng, nw, st, &order)
	arb.ForwardW = func(tok Token, proc int, w sig.Signature, trueW *lineset.Set) {
		after(eng, 3, func() { arb.Done(tok) })
	}
	var got []uint64
	for i := 0; i < 60; i++ {
		i := i
		w := sig.NewExact()
		w.Add(mem.Line(1000 + i)) // all disjoint
		arb.Request(&Request{Proc: i % 8, W: w, R: sig.NewExact(),
			Reply: func(g bool, o uint64) {
				if g {
					got = append(got, o)
				}
			}})
		eng.Run(nil)
	}
	for i, o := range got {
		if o != uint64(i+1) {
			t.Fatalf("order sequence has gaps: position %d has order %d", i, o)
		}
	}
}
