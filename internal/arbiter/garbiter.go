package arbiter

import (
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
)

// reservation pairs an arbiter with the tentative token it issued during
// phase 1 of a G-arbiter transaction.
type reservation struct {
	arb *Arbiter
	tok Token
}

// RangeGranule is the interleaving granule (in lines) that maps addresses
// to arbiter/directory modules: 64 lines = 2 KB.
const RangeGranule = 64

// RangeOf returns the arbiter/directory module owning line l in an n-module
// machine.
func RangeOf(l mem.Line, n int) int {
	if n <= 1 {
		return 0
	}
	return int((uint64(l) / RangeGranule) % uint64(n))
}

// RangesOf returns the sorted, deduplicated set of modules covering every
// line a chunk read or wrote. A processor derives this to decide whether a
// commit needs one arbiter or the G-arbiter.
func RangesOf(sets []*lineset.Set, n int) []int {
	if n <= 1 {
		return []int{0}
	}
	return RangesOfInto(nil, sets, n, make([]bool, n))
}

// RangesOfInto is RangesOf with caller-provided storage, for the per-commit
// hot path: the result is appended to out (ascending module order) and seen
// must have length n (it is cleared here). The returned slice aliases out's
// storage — callers that let it escape past the current event must copy it.
func RangesOfInto(out []int, sets []*lineset.Set, n int, seen []bool) []int {
	if n <= 1 {
		return append(out, 0)
	}
	clear(seen)
	for _, set := range sets {
		set.ForEach(func(l mem.Line) {
			seen[RangeOf(l, n)] = true
		})
	}
	for i, s := range seen {
		if s {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}

// Reserve is the first phase of a G-arbiter transaction: the arbiter checks
// the request against its pending list and, on success, inserts a tentative
// entry that blocks conflicting commits until Confirm or Abort. The entry
// takes the request's Hold, released at Abort or (once confirmed) Done.
// The request must carry R (the RSig optimization does not apply to
// multi-range commits in this model).
func (a *Arbiter) Reserve(req *Request) (Token, bool) {
	if a.Faults.ArbDeny(req.Proc) {
		return 0, false
	}
	if a.lockProc >= 0 && a.lockProc != req.Proc {
		return 0, false
	}
	if len(a.pending) >= a.MaxSimul {
		return 0, false
	}
	if a.conflicts(req.R, req.W) {
		return 0, false
	}
	a.nextTok++
	tok := a.nextTok
	req.Hold.Take()
	a.pending[tok] = pendingEntry{w: req.W, hold: req.Hold}
	a.noteWList()
	return tok, true
}

// Confirm firms a reservation and launches the directory flow for this
// arbiter's module. Empty-W requests never reach Reserve/Confirm.
func (a *Arbiter) Confirm(tok Token, req *Request) {
	if _, ok := a.pending[tok]; !ok {
		panic("arbiter: Confirm of unknown token")
	}
	a.ForwardW(tok, req.Proc, req.W, req.TrueW)
}

// Abort drops a reservation after a partner arbiter denied, releasing its
// Hold.
func (a *Arbiter) Abort(tok Token) {
	e := a.pending[tok]
	delete(a.pending, tok)
	a.noteWList()
	e.hold.Release()
}

// garbTxn is one multi-range transaction parked in a shard's FIFO queue
// while the shard is at its in-flight cap. The ranges slice must be stable
// (callers copy scratch-backed lists before handing them to Request).
type garbTxn struct {
	req    *Request
	ranges []int
	since  sim.Time
}

// garbShard is one independent coordinator of the sharded G-arbiter tier:
// a transaction is coordinated by the shard owning its first involved
// module, under a per-shard in-flight cap with FIFO overflow. Shards share
// no state beyond the global commit-order counter, so the coordinator hot
// spot scales with the arbiter tier instead of serializing on one node.
type garbShard struct {
	inFlight int
	// queue parks transactions past the in-flight cap, oldest at
	// queue[head]; release launches or proves the queue empty (waiterpair's
	// len()-guard refinement). The queue is empty exactly when
	// len(queue) == 0: pop rewinds it to the start of its storage when the
	// last entry leaves.
	//sim:waitq garbfifo
	queue []garbTxn
	head  int
}

// push parks t at the tail. When the storage is full and at least half of
// it is dead space in front of head, the live entries slide down first, so
// every entry is moved at most once per pop that made room for it.
func (sh *garbShard) push(t garbTxn) {
	if len(sh.queue) == cap(sh.queue) && sh.head > 0 && 2*sh.head >= len(sh.queue) {
		n := copy(sh.queue, sh.queue[sh.head:])
		clear(sh.queue[n:])
		sh.queue = sh.queue[:n]
		sh.head = 0
	}
	sh.queue = append(sh.queue, t)
}

// pop dequeues the oldest parked transaction in O(1); the queue must be
// non-empty.
//
//sim:waitq deq garbfifo
func (sh *garbShard) pop() garbTxn {
	t := sh.queue[sh.head]
	sh.queue[sh.head] = garbTxn{} // drop the request reference
	sh.head++
	if sh.head == len(sh.queue) {
		sh.queue = sh.queue[:0]
		sh.head = 0
	}
	return t
}

// GArbiter coordinates commits that span several arbiter ranges (§4.2.3,
// Figure 8(b)). It runs the two-phase reserve/confirm protocol over the
// network, charging the extra messages the paper describes. The
// coordinator role is sharded (SetShards); with one shard it behaves as
// the paper's single G-arbiter node with a bounded transaction table.
type GArbiter struct {
	eng  *sim.Engine
	net  *network.Network
	st   *stats.Stats
	Arbs []*Arbiter
	// MaxInFlight caps the transactions each shard coordinates at once —
	// the hardware transaction-table size. Excess requests queue FIFO and
	// launch as slots free, counted by GArbQueued/GArbQueueCycles.
	MaxInFlight int
	shards      []garbShard
}

// NewGArbiter returns a coordinator over arbs with a single shard.
func NewGArbiter(eng *sim.Engine, net *network.Network, st *stats.Stats, arbs []*Arbiter) *GArbiter {
	return &GArbiter{
		eng: eng, net: net, st: st, Arbs: arbs,
		MaxInFlight: DefaultMaxSimul,
		shards:      make([]garbShard, 1),
	}
}

// SetShards sizes the coordinator tier to n independent shards (n < 1 is
// treated as 1). Must be called before any Request.
func (g *GArbiter) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	g.shards = make([]garbShard, n)
}

// Shards reports the coordinator tier width, for tests.
func (g *GArbiter) Shards() int { return len(g.shards) }

// Request runs a multi-arbiter commit transaction across the given module
// ids. req.R must be non-nil, and ranges must be stable storage — a queued
// transaction holds it until a shard slot frees. The decision Reply fires
// at the coordinating shard's combine event.
func (g *GArbiter) Request(req *Request, ranges []int) {
	g.st.CommitRequests++
	g.st.GArbTransactions++
	if len(ranges) > 1 {
		g.st.MultiArbCommits++
	}
	sh := &g.shards[ranges[0]%len(g.shards)]
	if sh.inFlight >= g.MaxInFlight {
		g.st.GArbQueued++
		sh.push(garbTxn{req: req, ranges: ranges, since: g.eng.Now()})
		return
	}
	sh.inFlight++
	g.launch(sh, req, ranges)
}

// launch starts phase 1 of one transaction on its coordinating shard:
// forward (R,W) to each involved arbiter (one hop each) and reserve;
// replies return to the shard (another hop), and the last reply combines.
func (g *GArbiter) launch(sh *garbShard, req *Request, ranges []int) {
	var reserved []reservation
	failed := false
	replies := 0
	for _, idx := range ranges {
		arb := g.Arbs[idx]
		g.net.SendAfter(ProcessLat, stats.CatWrSig, network.SigBytes, func() {
			g.net.Account(stats.CatRdSig, network.SigBytes) // R rides along
			tok, ok := arb.Reserve(req)
			g.net.Send(stats.CatOther, network.CtrlBytes, func() {
				replies++
				if ok {
					reserved = append(reserved, reservation{arb, tok})
				} else {
					failed = true
				}
				if replies == len(ranges) {
					g.combine(sh, req, reserved, failed)
				}
			})
		})
	}
}

func (g *GArbiter) combine(sh *garbShard, req *Request, reserved []reservation, failed bool) {
	if failed {
		for _, r := range reserved {
			r := r
			g.net.Send(stats.CatOther, network.CtrlBytes, func() { r.arb.Abort(r.tok) })
		}
		g.st.CommitDenies++
		req.Reply(false, 0)
		g.release(sh)
		return
	}
	g.st.CommitGrants++
	*g.Arbs[0].order++
	ord := *g.Arbs[0].order
	for _, r := range reserved {
		r := r
		g.net.Send(stats.CatOther, network.CtrlBytes, func() { r.arb.Confirm(r.tok, req) })
	}
	req.Reply(true, ord)
	g.release(sh)
}

// release frees the finished transaction's slot: the oldest queued
// transaction (FIFO — deterministic and starvation-free) launches in its
// place, charging its queueing delay to GArbQueueCycles.
//
//sim:waitq final garbfifo
func (g *GArbiter) release(sh *garbShard) {
	if len(sh.queue) > 0 {
		t := sh.pop()
		g.st.GArbQueueCycles += uint64(g.eng.Now() - t.since)
		g.launch(sh, t.req, t.ranges)
		return
	}
	sh.inFlight--
}
