package sim

import (
	"math/rand"
	"testing"
)

// This file holds the differential and property tests for the two-tier
// calendar queue (timing wheel + overflow heap): every schedule sequence —
// near-future, far-future, wheel-horizon boundary, same-cycle bursts,
// reschedule chains, Reset/warm-reuse cycles — must fire in exactly the
// (time, seq) order a single reference priority queue produces.

// refEngine is the reference model: a deliberately naive single priority
// queue with O(n) extract-min over (at, seq). It mirrors the Engine API
// surface the tests drive (schedule-at, step, run-until, reset).
type refEngine struct {
	now Time
	seq uint64
	evs []refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	id  uint64
}

func (r *refEngine) at(tm Time, id uint64) {
	r.seq++
	r.evs = append(r.evs, refEvent{at: tm, seq: r.seq, id: id})
}

func (r *refEngine) pending() int { return len(r.evs) }

func (r *refEngine) peek() (Time, bool) {
	if len(r.evs) == 0 {
		return 0, false
	}
	best := 0
	for i := 1; i < len(r.evs); i++ {
		if r.evs[i].at < r.evs[best].at ||
			(r.evs[i].at == r.evs[best].at && r.evs[i].seq < r.evs[best].seq) {
			best = i
		}
	}
	return r.evs[best].at, true
}

func (r *refEngine) step() (refEvent, bool) {
	if len(r.evs) == 0 {
		return refEvent{}, false
	}
	best := 0
	for i := 1; i < len(r.evs); i++ {
		if r.evs[i].at < r.evs[best].at ||
			(r.evs[i].at == r.evs[best].at && r.evs[i].seq < r.evs[best].seq) {
			best = i
		}
	}
	ev := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	if ev.at > r.now {
		r.now = ev.at
	}
	return ev, true
}

func (r *refEngine) reset() {
	r.now, r.seq, r.evs = 0, 0, r.evs[:0]
}

// firing is one observed event execution: the clock at fire time plus the
// event's identity. Differential runs compare firing sequences.
type firing struct {
	at Time
	id uint64
}

// diffHarness drives an Engine and the reference model through the same
// operation sequence and fails the test on the first divergence in firing
// order, clock, or pending count.
type diffHarness struct {
	t    testing.TB
	eng  *Engine
	ref  *refEngine
	got  []firing
	next uint64
}

func newDiffHarness(t testing.TB, eng *Engine) *diffHarness {
	return &diffHarness{t: t, eng: eng, ref: &refEngine{}}
}

// schedule registers one event (with a fresh id) at absolute time tm on
// both sides. children are deltas the engine-side callback schedules
// recursively at fire time — the reschedule-from-callback pattern every
// simulator component uses — and each recursive schedule registers on
// both sides again, so the reference stays aligned without replay logic.
func (h *diffHarness) schedule(tm Time, children []Time) {
	id := h.next
	h.next++
	h.ref.at(tm, id)
	schedAt(h.eng, tm, func() {
		h.got = append(h.got, firing{at: h.eng.Now(), id: id})
		for _, d := range children {
			h.schedule(h.eng.Now()+d, nil)
		}
	})
}

func (h *diffHarness) stepBoth() bool {
	rev, ok := h.ref.step()
	eok := h.eng.Step()
	if ok != eok {
		h.t.Fatalf("step divergence: ref ok=%v engine ok=%v", ok, eok)
	}
	if !ok {
		return false
	}
	n := len(h.got)
	if n == 0 {
		h.t.Fatalf("engine step fired nothing; ref fired id=%d at=%d", rev.id, rev.at)
	}
	g := h.got[n-1]
	if g.id != rev.id || g.at != rev.at {
		h.t.Fatalf("firing divergence: engine (at=%d id=%d) vs ref (at=%d id=%d)", g.at, g.id, rev.at, rev.id)
	}
	if h.eng.Now() != rev.at {
		h.t.Fatalf("clock divergence: engine now=%d ref at=%d", h.eng.Now(), rev.at)
	}
	if h.eng.Pending() != h.ref.pending() {
		h.t.Fatalf("pending divergence: engine %d ref %d", h.eng.Pending(), h.ref.pending())
	}
	return true
}

func (h *diffHarness) drain() {
	for h.stepBoth() {
	}
}

// TestWheelDifferentialRandom drives random schedule sequences spanning
// the wheel horizon through the engine and the reference queue.
func TestWheelDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine(seed)
		h := newDiffHarness(t, eng)
		// Deltas straddle every regime: same-cycle (0), near-future wheel
		// hits, the exact horizon boundary (wheelSize-1, wheelSize,
		// wheelSize+1), and far-future heap spills.
		deltas := []Time{0, 1, 2, 6, 63, 64, 287, wheelSize - 1, wheelSize, wheelSize + 1, 2000, 20000}
		for i := 0; i < 400; i++ {
			switch rng.Intn(5) {
			case 0, 1: // schedule a leaf event
				h.schedule(eng.Now()+deltas[rng.Intn(len(deltas))], nil)
			case 2: // schedule an event that reschedules children when fired
				kids := make([]Time, 1+rng.Intn(3))
				for j := range kids {
					kids[j] = deltas[rng.Intn(len(deltas))]
				}
				h.schedule(eng.Now()+deltas[rng.Intn(len(deltas))], kids)
			case 3: // burst: several events on the same future cycle
				at := eng.Now() + deltas[rng.Intn(len(deltas))]
				for j := 0; j < 3; j++ {
					h.schedule(at, nil)
				}
			case 4: // fire a few
				for j := 0; j < 4; j++ {
					if !h.stepBoth() {
						break
					}
				}
			}
		}
		h.drain()
		if eng.Pending() != 0 || h.ref.pending() != 0 {
			t.Fatalf("seed %d: undrained events (engine %d, ref %d)", seed, eng.Pending(), h.ref.pending())
		}
	}
}

// TestWheelDifferentialWarmReuse runs a random script, Resets the engine,
// and runs a different script on the reused (warm) engine — the firing
// order must match both the reference queue and a cold engine running the
// second script alone.
func TestWheelDifferentialWarmReuse(t *testing.T) {
	script := func(eng *Engine, seed int64) []firing {
		rng := rand.New(rand.NewSource(seed))
		h := newDiffHarness(t, eng)
		for i := 0; i < 200; i++ {
			d := Time(rng.Intn(3 * wheelSize))
			h.schedule(eng.Now()+d, nil)
			if rng.Intn(3) == 0 {
				h.stepBoth()
			}
		}
		h.drain()
		return h.got
	}

	warm := NewEngine(1)
	script(warm, 7) // first run leaves grown slot/heap capacity behind
	warm.Reset(1)
	if warm.Pending() != 0 || warm.Now() != 0 {
		t.Fatalf("Reset left state: pending=%d now=%d", warm.Pending(), warm.Now())
	}
	warmGot := script(warm, 42)

	cold := NewEngine(1)
	coldGot := script(cold, 42)

	if len(warmGot) != len(coldGot) {
		t.Fatalf("warm fired %d events, cold %d", len(warmGot), len(coldGot))
	}
	for i := range warmGot {
		if warmGot[i] != coldGot[i] {
			t.Fatalf("warm/cold divergence at %d: warm %+v cold %+v", i, warmGot[i], coldGot[i])
		}
	}
}

// TestWheelResetDropsPendingEverywhere leaves events in both tiers and in
// a partially drained slot, Resets, and checks nothing survives.
func TestWheelResetDropsPendingEverywhere(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	for i := 0; i < 4; i++ {
		schedAt(e, 10, func() { fired++ })            // same-cycle burst (partial drain below)
		schedAt(e, Time(10000+i), func() { fired++ }) // heap tier
	}
	e.Step() // drain one of the four cycle-10 events, leaving a nonzero head
	if fired != 1 {
		t.Fatalf("expected 1 fired, got %d", fired)
	}
	e.Reset(1)
	if e.Pending() != 0 {
		t.Fatalf("Reset left %d pending events", e.Pending())
	}
	e.Run(nil)
	if fired != 1 {
		t.Fatalf("a pre-Reset event fired after Reset (fired=%d)", fired)
	}
}

// TestWheelHorizonTieOrder pins the cross-tier tie rule: an event that
// spills to the heap (scheduled when its cycle was beyond the horizon)
// must fire before every event later scheduled into the wheel for the
// same cycle — that is pure (time, seq) order.
func TestWheelHorizonTieOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	target := Time(wheelSize + 5) // beyond horizon at schedule time
	schedAt(e, target, func() { got = append(got, 0) })
	// Advance the clock so target enters the wheel window, then schedule
	// more events for the very same cycle (they land in the wheel).
	schedAt(e, 10, func() {
		schedAt(e, target, func() { got = append(got, 1) })
		schedAt(e, target, func() { got = append(got, 2) })
	})
	e.Run(nil)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie order %v, want %v", got, want)
		}
	}
}

// FuzzEngine feeds op-code streams through the engine and the reference
// queue. Each input byte triplet encodes one operation; the fuzzer hunts
// for any divergence in firing order, clock, or pending count.
func FuzzEngine(f *testing.F) {
	f.Add([]byte("\x00\x06\x00\x02\x00\x00"))                         // near schedule, step
	f.Add([]byte("\x01\xff\xff\x02\x00\x00\x02\x00\x00"))             // far spill, steps
	f.Add([]byte("\x00\xff\x01\x01\xff\x01\x03\x20\x00\x02\x00\x00")) // horizon straddle + run-until
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x02\x00\x00\x04\x00\x00")) // same-cycle burst + reset
	f.Add([]byte("\x03\xff\x7f\x00\x01\x00\x02\x00\x00"))             // long run-until then near
	f.Fuzz(func(t *testing.T, ops []byte) {
		eng := NewEngine(1)
		ref := &refEngine{}
		var got []firing
		var next uint64
		scheduleBoth := func(d Time) {
			id := next
			next++
			at := eng.Now() + d
			ref.at(at, id)
			schedAt(eng, at, func() { got = append(got, firing{at: eng.Now(), id: id}) })
		}
		stepBoth := func() {
			rev, ok := ref.step()
			if eok := eng.Step(); eok != ok {
				t.Fatalf("step divergence: engine %v ref %v", eok, ok)
			}
			if !ok {
				return
			}
			g := got[len(got)-1]
			if g.id != rev.id || g.at != rev.at || eng.Now() != rev.at {
				t.Fatalf("firing divergence: engine (at=%d id=%d now=%d) vs ref (at=%d id=%d)",
					g.at, g.id, eng.Now(), rev.at, rev.id)
			}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			arg := Time(ops[i+1]) | Time(ops[i+2])<<8
			switch ops[i] % 5 {
			case 0: // near-future schedule (wheel tier)
				scheduleBoth(arg & wheelMask)
			case 1: // far-future schedule (often heap tier)
				scheduleBoth(arg * 7)
			case 2:
				stepBoth()
			case 3: // run-until a bounded horizon
				until := eng.Now() + arg
				for {
					at, ok := ref.peek()
					if !ok || at > until {
						break
					}
					stepBoth()
				}
				eng.RunUntil(until)
				if ref.now < until {
					ref.now = until
				}
				if eng.Now() != ref.now {
					t.Fatalf("run-until clock divergence: engine %d ref %d", eng.Now(), ref.now)
				}
			case 4: // warm reuse
				eng.Reset(1)
				ref.reset()
				got = got[:0]
			}
			if eng.Pending() != ref.pending() {
				t.Fatalf("pending divergence: engine %d ref %d", eng.Pending(), ref.pending())
			}
		}
		// Drain to quiescence; every leftover event must match too.
		for ref.pending() > 0 {
			stepBoth()
		}
		if eng.Step() {
			t.Fatal("engine had events after reference drained")
		}
	})
}
