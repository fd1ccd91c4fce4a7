package arbiter

import (
	"testing"

	"bulksc/internal/chunk"
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sig"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
)

type harness struct {
	eng   *sim.Engine
	net   *network.Network
	st    *stats.Stats
	arb   *Arbiter
	order uint64
	fwd   []Token // ForwardW log
}

func newHarness() *harness {
	h := &harness{eng: sim.NewEngine(1), st: stats.New()}
	h.net = network.New(h.eng, h.st)
	h.arb = New(0, h.eng, h.net, h.st, &h.order)
	h.arb.ForwardW = func(tok Token, proc int, w sig.Signature, trueW *lineset.Set) {
		h.fwd = append(h.fwd, tok)
	}
	return h
}

// after schedules a plain func() d cycles from now through the engine's
// one callback form.
func after(eng *sim.Engine, d sim.Time, f func()) { eng.AfterCall(d, callFunc, f) }

func callFunc(arg any) { arg.(func())() }

func sigOf(lines ...mem.Line) sig.Signature {
	s := sig.NewExact()
	for _, l := range lines {
		s.Add(l)
	}
	return s
}

func req(proc int, w, r sig.Signature, reply func(bool, uint64)) *Request {
	return &Request{Proc: proc, W: w, R: r, Reply: reply,
		FetchR: func(cb func(sig.Signature)) { cb(r) }}
}

func TestGrantWhenListEmpty(t *testing.T) {
	h := newHarness()
	var granted bool
	var order uint64
	h.arb.Request(req(0, sigOf(1), sigOf(2), func(g bool, o uint64) { granted, order = g, o }))
	h.eng.Run(nil)
	if !granted || order != 1 {
		t.Fatalf("granted=%v order=%d, want true/1", granted, order)
	}
	if len(h.fwd) != 1 {
		t.Fatal("W not forwarded to directory")
	}
	if h.arb.Pending() != 1 {
		t.Fatal("granted W missing from pending list")
	}
}

func TestEmptyWSkipsListAndForward(t *testing.T) {
	h := newHarness()
	var granted bool
	h.arb.Request(req(0, sigOf(), sigOf(5), func(g bool, _ uint64) { granted = g }))
	h.eng.Run(nil)
	if !granted {
		t.Fatal("empty-W request denied")
	}
	if h.arb.Pending() != 0 || len(h.fwd) != 0 {
		t.Fatal("empty-W commit entered pending list or was forwarded")
	}
	if h.st.EmptyWCommits != 1 {
		t.Fatal("EmptyWCommits not counted")
	}
}

func TestDenyOnConflictWithPendingW(t *testing.T) {
	h := newHarness()
	h.arb.Request(req(0, sigOf(10), sigOf(), func(bool, uint64) {}))
	h.eng.Run(nil)
	// Conflict via R.
	var g1 bool
	h.arb.Request(req(1, sigOf(99), sigOf(10), func(g bool, _ uint64) { g1 = g }))
	h.eng.Run(nil)
	if g1 {
		t.Fatal("request with R overlapping pending W was granted")
	}
	// Conflict via W.
	var g2 bool
	h.arb.Request(req(2, sigOf(10), sigOf(50), func(g bool, _ uint64) { g2 = g }))
	h.eng.Run(nil)
	if g2 {
		t.Fatal("request with W overlapping pending W was granted")
	}
	// Disjoint: overlapping commits allowed.
	var g3 bool
	h.arb.Request(req(3, sigOf(77), sigOf(88), func(g bool, _ uint64) { g3 = g }))
	h.eng.Run(nil)
	if !g3 {
		t.Fatal("disjoint concurrent commit denied")
	}
	if h.arb.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", h.arb.Pending())
	}
}

func TestDoneRemovesAndUnblocks(t *testing.T) {
	h := newHarness()
	h.arb.Request(req(0, sigOf(10), sigOf(), func(bool, uint64) {}))
	h.eng.Run(nil)
	tok := h.fwd[0]
	h.arb.Done(tok)
	if h.arb.Pending() != 0 {
		t.Fatal("Done did not remove pending W")
	}
	var g bool
	h.arb.Request(req(1, sigOf(10), sigOf(), func(gr bool, _ uint64) { g = gr }))
	h.eng.Run(nil)
	if !g {
		t.Fatal("conflicting request still denied after Done")
	}
}

func TestRSigOptimizationFetchesROnlyWhenNeeded(t *testing.T) {
	h := newHarness()
	fetched := 0
	mk := func(proc int, w, r sig.Signature, reply func(bool, uint64)) *Request {
		return &Request{Proc: proc, W: w, Reply: reply,
			FetchR: func(cb func(sig.Signature)) { fetched++; cb(r) }}
	}
	var g1 bool
	h.arb.Request(mk(0, sigOf(10), sigOf(1), func(g bool, _ uint64) { g1 = g }))
	h.eng.Run(nil)
	if !g1 || fetched != 0 {
		t.Fatalf("empty-list grant fetched R (%d times)", fetched)
	}
	var g2 bool
	h.arb.Request(mk(1, sigOf(20), sigOf(2), func(g bool, _ uint64) { g2 = g }))
	h.eng.Run(nil)
	if !g2 || fetched != 1 {
		t.Fatalf("non-empty-list grant: fetched=%d granted=%v", fetched, g2)
	}
	if h.st.RSigRequired != 1 {
		t.Fatal("RSigRequired not counted")
	}
}

func TestMaxSimulCommits(t *testing.T) {
	h := newHarness()
	h.arb.MaxSimul = 2
	grants := 0
	for i := 0; i < 3; i++ {
		h.arb.Request(req(i, sigOf(mem.Line(100+i)), sigOf(), func(g bool, _ uint64) {
			if g {
				grants++
			}
		}))
		h.eng.Run(nil)
	}
	if grants != 2 {
		t.Fatalf("grants = %d, want 2 (MaxSimul)", grants)
	}
}

func TestPreArbitrationBlocksOthers(t *testing.T) {
	h := newHarness()
	locked := false
	h.arb.PreArbitrate(3, func() { locked = true })
	h.eng.Run(nil)
	if !locked || h.arb.Locked() != 3 {
		t.Fatal("pre-arbitration lock not acquired")
	}
	var gOther, gOwner bool
	h.arb.Request(req(1, sigOf(1), sigOf(), func(g bool, _ uint64) { gOther = g }))
	h.eng.Run(nil)
	if gOther {
		t.Fatal("other processor granted during pre-arbitration")
	}
	h.arb.Request(req(3, sigOf(2), sigOf(), func(g bool, _ uint64) { gOwner = g }))
	h.eng.Run(nil)
	if !gOwner {
		t.Fatal("lock owner denied")
	}
	if h.arb.Locked() != -1 {
		t.Fatal("lock not released after owner's commit")
	}
}

func TestPreArbitrationQueue(t *testing.T) {
	h := newHarness()
	var order []int
	h.arb.PreArbitrate(1, func() { order = append(order, 1) })
	h.eng.Run(nil)
	h.arb.PreArbitrate(2, func() { order = append(order, 2) })
	h.eng.Run(nil)
	if len(order) != 1 {
		t.Fatal("second locker acquired while first held")
	}
	h.arb.Request(req(1, sigOf(9), sigOf(), func(bool, uint64) {}))
	h.eng.Run(nil)
	if len(order) != 2 || order[1] != 2 {
		t.Fatalf("lock queue order = %v", order)
	}
	h.arb.EndPreArbitration(2)
	if h.arb.Locked() != -1 {
		t.Fatal("EndPreArbitration did not release")
	}
}

// TestEndPreArbitrationRemovesQueuedWaiter: a processor that gives up on
// pre-arbitration while still *queued* (not holding the lock) must be
// removed from the queue. Otherwise the next unlock hands the lock to a
// processor that abandoned the request: its granted callback fires into a
// dead chunk and the orphaned lock stalls every other waiter forever.
func TestEndPreArbitrationRemovesQueuedWaiter(t *testing.T) {
	h := newHarness()
	staleGrant := false
	h.arb.PreArbitrate(0, func() {})
	h.eng.Run(nil)
	h.arb.PreArbitrate(1, func() { staleGrant = true })
	h.eng.Run(nil)
	if h.arb.Locked() != 0 {
		t.Fatal("P0 should hold the lock")
	}

	// P1 gives up while still queued.
	h.arb.EndPreArbitration(1)
	if h.arb.Locked() != 0 {
		t.Fatal("EndPreArbitration of a waiter must not disturb the holder")
	}

	// P0's commit releases the lock; it must NOT go to the departed P1.
	h.arb.Request(req(0, sigOf(7), sigOf(), func(bool, uint64) {}))
	h.eng.Run(nil)
	if staleGrant {
		t.Fatal("lock granted to a waiter that called EndPreArbitration")
	}
	if h.arb.Locked() != -1 {
		t.Fatalf("lock held by %d, want free", h.arb.Locked())
	}
}

// TestEndPreArbitrationKeepsOtherWaiters: removing one queued waiter must
// not drop the others — the remaining valid waiter still gets the lock.
func TestEndPreArbitrationKeepsOtherWaiters(t *testing.T) {
	h := newHarness()
	var granted []int
	h.arb.PreArbitrate(0, func() { granted = append(granted, 0) })
	h.eng.Run(nil)
	h.arb.PreArbitrate(1, func() { granted = append(granted, 1) })
	h.eng.Run(nil)
	h.arb.PreArbitrate(2, func() { granted = append(granted, 2) })
	h.eng.Run(nil)

	h.arb.EndPreArbitration(1) // P1 abandons; P2 still waiting

	h.arb.Request(req(0, sigOf(8), sigOf(), func(bool, uint64) {}))
	h.eng.Run(nil)
	if h.arb.Locked() != 2 {
		t.Fatalf("lock held by %d, want 2 (the remaining waiter)", h.arb.Locked())
	}
	want := []int{0, 2}
	if len(granted) != 2 || granted[0] != want[0] || granted[1] != want[1] {
		t.Fatalf("grant order = %v, want %v", granted, want)
	}
}

func TestWListStats(t *testing.T) {
	h := newHarness()
	h.arb.Request(req(0, sigOf(10), sigOf(), func(bool, uint64) {}))
	h.eng.Run(nil)
	after(h.eng, 100, func() { h.arb.Done(h.fwd[0]) })
	h.eng.Run(nil)
	h.st.CloseWList(uint64(h.eng.Now()) + 100)
	if h.st.NonEmptyWListPct() <= 0 {
		t.Fatal("non-empty W list time not recorded")
	}
	if h.st.AvgPendingWSigs() <= 0 {
		t.Fatal("pending integral not recorded")
	}
}

func TestCommitOrderMonotonic(t *testing.T) {
	h := newHarness()
	var orders []uint64
	for i := 0; i < 5; i++ {
		h.arb.Request(req(i, sigOf(mem.Line(1000*i)), sigOf(), func(g bool, o uint64) {
			if g {
				orders = append(orders, o)
			}
		}))
		h.eng.Run(nil)
	}
	for i := 1; i < len(orders); i++ {
		if orders[i] <= orders[i-1] {
			t.Fatalf("commit order not strictly increasing: %v", orders)
		}
	}
}

// --- distributed arbiter -------------------------------------------------

func TestRangeOf(t *testing.T) {
	if RangeOf(0, 1) != 0 {
		t.Fatal("single module must own everything")
	}
	n := 4
	counts := make([]int, n)
	for l := mem.Line(0); l < mem.Line(4*RangeGranule*n); l++ {
		counts[RangeOf(l, n)]++
	}
	for i, c := range counts {
		if c != 4*RangeGranule {
			t.Fatalf("module %d owns %d lines, want %d", i, c, 4*RangeGranule)
		}
	}
}

func TestRangesOf(t *testing.T) {
	sets := []*lineset.Set{
		lineset.NewSetOf(0),
		lineset.NewSetOf(mem.Line(RangeGranule), 1),
	}
	got := RangesOf(sets, 4)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("RangesOf = %v, want [0 1]", got)
	}
	if r := RangesOf(nil, 4); len(r) != 1 || r[0] != 0 {
		t.Fatalf("RangesOf(empty) = %v", r)
	}
}

func newDistributed(n int) (*sim.Engine, *stats.Stats, []*Arbiter, *GArbiter, *[]Token) {
	eng := sim.NewEngine(1)
	st := stats.New()
	nw := network.New(eng, st)
	var order uint64
	fwd := &[]Token{}
	arbs := make([]*Arbiter, n)
	for i := range arbs {
		arbs[i] = New(i, eng, nw, st, &order)
		arbs[i].ForwardW = func(tok Token, proc int, w sig.Signature, trueW *lineset.Set) {
			*fwd = append(*fwd, tok)
		}
	}
	return eng, st, arbs, NewGArbiter(eng, nw, st, arbs), fwd
}

func TestGArbiterGrantsDisjoint(t *testing.T) {
	for _, shards := range []int{1, 4} {
		eng, _, arbs, g, fwd := newDistributed(4)
		g.SetShards(shards)
		var granted bool
		r := req(0, sigOf(0, RangeGranule), sigOf(2*RangeGranule), func(gr bool, _ uint64) { granted = gr })
		g.Request(r, []int{0, 1, 2})
		eng.Run(nil)
		if !granted {
			t.Fatalf("shards=%d: multi-range commit denied on idle machine", shards)
		}
		if arbs[0].Pending() != 1 || arbs[1].Pending() != 1 || arbs[2].Pending() != 1 {
			t.Fatalf("shards=%d: reservation missing at involved arbiters", shards)
		}
		if len(*fwd) != 3 {
			t.Fatalf("shards=%d: ForwardW called %d times, want 3", shards, len(*fwd))
		}
	}
}

func TestGArbiterDeniesOnPartialConflict(t *testing.T) {
	for _, shards := range []int{1, 4} {
		eng, _, arbs, g, _ := newDistributed(8)
		g.SetShards(shards)
		// Occupy arbiter 1 with a committing W on line RangeGranule.
		arbs[1].Request(req(9, sigOf(RangeGranule), sigOf(), func(bool, uint64) {}))
		eng.Run(nil)
		var granted, replied bool
		r := req(0, sigOf(0, RangeGranule), sigOf(), func(gr bool, _ uint64) { granted, replied = gr, true })
		g.Request(r, []int{0, 1})
		eng.Run(nil)
		if !replied {
			t.Fatalf("shards=%d: no decision", shards)
		}
		if granted {
			t.Fatalf("shards=%d: conflicting multi-range commit granted", shards)
		}
		// The reservation at arbiter 0 must have been aborted.
		if arbs[0].Pending() != 0 {
			t.Fatalf("shards=%d: aborted reservation leaked at arbiter 0", shards)
		}
	}
}

// TestGArbiterShardedConcurrentDisjoint drives four disjoint multi-range
// commits whose first ranges land on four different shards: all must be
// granted with strictly increasing global commit orders, and none may
// queue — the shards coordinate independently.
func TestGArbiterShardedConcurrentDisjoint(t *testing.T) {
	eng, st, arbs, g, _ := newDistributed(8)
	g.SetShards(4)
	g.MaxInFlight = 1 // any shard collision would be forced to queue
	var orders []uint64
	for i := 0; i < 4; i++ {
		lo := mem.Line(i * RangeGranule)
		hi := mem.Line((i + 4) * RangeGranule)
		r := req(i, sigOf(lo, hi), sigOf(), func(gr bool, o uint64) {
			if gr {
				orders = append(orders, o)
			}
		})
		g.Request(r, []int{i, i + 4})
	}
	eng.Run(nil)
	if len(orders) != 4 {
		t.Fatalf("%d of 4 disjoint commits granted", len(orders))
	}
	for i := 1; i < len(orders); i++ {
		if orders[i] <= orders[i-1] {
			t.Fatalf("global commit order not strictly increasing across shards: %v", orders)
		}
	}
	if st.GArbQueued != 0 {
		t.Fatalf("disjoint-shard commits queued %d times, want 0", st.GArbQueued)
	}
	for i := 0; i < 8; i++ {
		if arbs[i].Pending() != 1 {
			t.Fatalf("arbiter %d pending = %d, want 1", i, arbs[i].Pending())
		}
	}
}

// TestGArbiterShardQueueFIFO fills a shard past its in-flight cap: the
// overflow transaction must park (GArbQueued), launch only after a slot
// frees, still be decided correctly, and charge its wait to
// GArbQueueCycles.
func TestGArbiterShardQueueFIFO(t *testing.T) {
	eng, st, _, g, _ := newDistributed(4)
	g.SetShards(2)
	g.MaxInFlight = 1
	var decisions []int // request id in decision order
	mk := func(id int, lo, hi mem.Line) *Request {
		return req(id, sigOf(lo, hi), sigOf(), func(gr bool, _ uint64) {
			if !gr {
				t.Errorf("disjoint request %d denied", id)
			}
			decisions = append(decisions, id)
		})
	}
	// All three start on shard 0 (first range 0 and 2 are both even).
	g.Request(mk(0, 0, RangeGranule), []int{0, 1})
	g.Request(mk(1, 2*RangeGranule, 3*RangeGranule), []int{2, 3})
	g.Request(mk(2, 128*RangeGranule, 129*RangeGranule), []int{0, 1})
	eng.Run(nil)
	if st.GArbQueued != 2 {
		t.Fatalf("GArbQueued = %d, want 2 (cap 1, three arrivals on one shard)", st.GArbQueued)
	}
	if st.GArbQueueCycles == 0 {
		t.Fatal("queued transactions charged no queue cycles")
	}
	if len(decisions) != 3 {
		t.Fatalf("%d of 3 requests decided", len(decisions))
	}
	// FIFO: arrival order is decision order.
	for i, id := range decisions {
		if id != i {
			t.Fatalf("decision order = %v, want FIFO [0 1 2]", decisions)
		}
	}
	if st.CommitGrants != 3 {
		t.Fatalf("CommitGrants = %d, want 3", st.CommitGrants)
	}
}

// TestGArbiterQueuedDenialReleasesSlot: a queued transaction that is
// ultimately denied must still free its shard slot so later traffic flows.
func TestGArbiterQueuedDenialReleasesSlot(t *testing.T) {
	eng, st, arbs, g, _ := newDistributed(2)
	g.SetShards(1)
	g.MaxInFlight = 1
	// Occupy arbiter 1 so the queued request conflicts there.
	arbs[1].Request(req(9, sigOf(3*RangeGranule), sigOf(), func(bool, uint64) {}))
	eng.Run(nil)
	var first, second, third string
	g.Request(req(0, sigOf(0, RangeGranule), sigOf(), func(gr bool, _ uint64) {
		first = verdict(gr)
	}), []int{0, 1})
	g.Request(req(1, sigOf(2*RangeGranule, 3*RangeGranule), sigOf(3*RangeGranule), func(gr bool, _ uint64) {
		second = verdict(gr)
	}), []int{0, 1})
	eng.Run(nil)
	if first != "granted" {
		t.Fatalf("first request %s, want granted", first)
	}
	if second != "denied" {
		t.Fatalf("queued conflicting request %s, want denied", second)
	}
	// The slot freed by the denial must serve new traffic.
	g.Request(req(2, sigOf(64*RangeGranule, 65*RangeGranule), sigOf(), func(gr bool, _ uint64) {
		third = verdict(gr)
	}), []int{0, 1})
	eng.Run(nil)
	if third != "granted" {
		t.Fatalf("post-denial request %s, want granted (slot leaked?)", third)
	}
	if st.CommitDenies != 1 {
		t.Fatalf("CommitDenies = %d, want 1", st.CommitDenies)
	}
}

func verdict(granted bool) string {
	if granted {
		return "granted"
	}
	return "denied"
}

// TestWListEntriesHoldTheChunk: every W-list entry keeps its chunk held
// from before the Reply until the entry leaves the list — a grant until
// Done, a G-arbiter reservation until Abort or (confirmed) Done — while an
// empty-W grant, which never enters the list, takes no hold.
func TestWListEntriesHoldTheChunk(t *testing.T) {
	h := newHarness()
	ch := &chunk.Chunk{}
	r := req(0, sigOf(1), sigOf(2), func(g bool, _ uint64) {
		if !g || ch.Holds != 1 {
			t.Fatalf("granted=%v with %d holds at the Reply, want a grant holding the chunk once", g, ch.Holds)
		}
	})
	r.Hold = ch.Hold()
	h.arb.Request(r)
	h.eng.Run(nil)
	h.arb.Done(h.fwd[0])
	if ch.Holds != 0 {
		t.Fatalf("Done left %d holds", ch.Holds)
	}

	empty := &chunk.Chunk{}
	r = req(0, sigOf(), sigOf(), func(bool, uint64) {})
	r.Hold = empty.Hold()
	h.arb.Request(r)
	h.eng.Run(nil)
	if empty.Holds != 0 {
		t.Fatalf("empty-W grant took %d holds", empty.Holds)
	}

	eng, _, arbs, g, fwd := newDistributed(4)
	confirmed := &chunk.Chunk{}
	r = req(0, sigOf(0, RangeGranule), sigOf(), func(bool, uint64) {})
	r.Hold = confirmed.Hold()
	g.Request(r, []int{0, 1})
	eng.Run(nil)
	if confirmed.Holds != 2 {
		t.Fatalf("confirmed transaction holds the chunk %d times, want once per arbiter (2)", confirmed.Holds)
	}
	for i, tok := range *fwd {
		arbs[i].Done(tok)
	}
	if confirmed.Holds != 0 {
		t.Fatalf("Done left %d holds", confirmed.Holds)
	}
	// A conflicting transaction: arbiter 0 reserves, arbiter 1 (busy with
	// line RangeGranule) denies, and the reservation's Abort releases.
	arbs[1].Request(req(9, sigOf(RangeGranule), sigOf(), func(bool, uint64) {}))
	eng.Run(nil)
	denied := &chunk.Chunk{}
	r = req(0, sigOf(0, RangeGranule), sigOf(), func(gr bool, _ uint64) {
		if gr {
			t.Fatal("conflicting transaction granted")
		}
	})
	r.Hold = denied.Hold()
	g.Request(r, []int{0, 1})
	eng.Run(nil)
	if denied.Holds != 0 || arbs[0].Pending() != 0 {
		t.Fatalf("aborted reservation: %d holds, %d entries left at arbiter 0", denied.Holds, arbs[0].Pending())
	}
}

// TestGArbShardQueueKeepsFIFOAcrossCompaction drives a shard queue through
// interleaved pushes and pops long enough to wrap its storage many times:
// entries leave in arrival order, and an emptied queue rewinds to length
// zero (the emptiness test release relies on).
func TestGArbShardQueueKeepsFIFOAcrossCompaction(t *testing.T) {
	var sh garbShard
	next, want := 0, 0
	push := func() {
		sh.push(garbTxn{since: sim.Time(next)})
		next++
	}
	pop := func() {
		if got := int(sh.pop().since); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	for round := 0; round < 200; round++ {
		for i := 0; i < 3+round%5; i++ {
			push()
		}
		for i := 0; i < 2+round%4 && want < next; i++ {
			pop()
		}
	}
	for want < next {
		pop()
	}
	if len(sh.queue) != 0 || sh.head != 0 {
		t.Fatalf("drained queue has len %d, head %d", len(sh.queue), sh.head)
	}
	if cap(sh.queue) > 1024 {
		t.Fatalf("queue storage grew to %d for a backlog of at most %d", cap(sh.queue), next)
	}
}

// mustPanic runs f and fails unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestUnknownTokenPanics: Done, Confirm and Abort of a token the arbiter
// does not hold are protocol errors. A double or stale Abort must not
// silently release a zero Hold.
func TestUnknownTokenPanics(t *testing.T) {
	eng, _, arbs, g, fwd := newDistributed(2)
	ch := &chunk.Chunk{}
	r := req(0, sigOf(0, RangeGranule), sigOf(), func(bool, uint64) {})
	r.Hold = ch.Hold()
	g.Request(r, []int{0, 1})
	eng.Run(nil)
	if len(*fwd) != 2 {
		t.Fatalf("ForwardW called %d times, want 2", len(*fwd))
	}
	tok := (*fwd)[0]
	arbs[0].Abort(tok)
	if ch.Holds != 1 || arbs[0].Pending() != 0 {
		t.Fatalf("Abort left %d holds and %d entries, want 1 and 0", ch.Holds, arbs[0].Pending())
	}
	mustPanic(t, "double Abort", func() { arbs[0].Abort(tok) })
	mustPanic(t, "Abort of a never-issued token", func() { arbs[1].Abort(99) })
	mustPanic(t, "Done after Abort", func() { arbs[0].Done(tok) })
	mustPanic(t, "Confirm after Abort", func() { arbs[0].Confirm(tok, r) })
	if ch.Holds != 1 {
		t.Fatalf("a rejected Abort or Done released a hold: %d left, want 1", ch.Holds)
	}
}

// TestWListKeepsInsertionOrder removes entries from the middle, the front
// and the back of a full W list: the survivors keep their order, each
// removal releases exactly its own entry's hold, and the freed slots take
// new entries.
func TestWListKeepsInsertionOrder(t *testing.T) {
	h := newHarness()
	chunks := make([]*chunk.Chunk, DefaultMaxSimul)
	for i := range chunks {
		chunks[i] = &chunk.Chunk{}
		r := req(i, sigOf(mem.Line(10*i)), sigOf(), func(bool, uint64) {})
		r.Hold = chunks[i].Hold()
		h.arb.Request(r)
	}
	h.eng.Run(nil)
	if h.arb.Pending() != DefaultMaxSimul {
		t.Fatalf("pending = %d, want a full list of %d", h.arb.Pending(), DefaultMaxSimul)
	}
	for _, i := range []int{3, 0, DefaultMaxSimul - 1} {
		h.arb.Done(h.fwd[i])
		if chunks[i].Holds != 0 {
			t.Fatalf("Done of entry %d left %d holds", i, chunks[i].Holds)
		}
	}
	var toks []Token
	for i := range h.arb.pending {
		toks = append(toks, h.arb.pending[i].tok)
	}
	want := []Token{h.fwd[1], h.fwd[2], h.fwd[4], h.fwd[5], h.fwd[6]}
	if len(toks) != len(want) {
		t.Fatalf("W list %v, want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("W list %v, want %v", toks, want)
		}
	}
	var g bool
	h.arb.Request(req(9, sigOf(3), sigOf(), func(gr bool, _ uint64) { g = gr }))
	h.eng.Run(nil)
	if !g || h.arb.Pending() != len(want)+1 {
		t.Fatalf("freed slot not reused: granted=%v pending=%d", g, h.arb.Pending())
	}
}
