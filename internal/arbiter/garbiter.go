package arbiter

import (
	"fmt"

	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
)

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
//
//sim:hotpath
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
	return a.insert(req), true
}

// Confirm firms a reservation and launches the directory flow for this
// arbiter's module. Empty-W requests never reach Reserve/Confirm.
//
//sim:hotpath
func (a *Arbiter) Confirm(tok Token, req *Request) {
	if a.find(tok) < 0 {
		panic(fmt.Sprintf("arbiter %d: Confirm for unknown token %d", a.ID, tok))
	}
	a.ForwardW(tok, req.Proc, req.W, req.TrueW)
}

// Abort drops a reservation after a partner arbiter denied, releasing its
// Hold. Like Done and Confirm it panics on a token it does not hold, so a
// double or stale abort cannot pass unnoticed.
//
//sim:hotpath
func (a *Arbiter) Abort(tok Token) { a.remove(tok, "Abort") }

// garbTxn is one multi-range transaction parked in a shard's FIFO queue
// while the shard is at its in-flight cap; its ranges live on the request.
type garbTxn struct {
	req   *Request
	since sim.Time
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

// Send routes req to the G-arbiter over the given module ids, which are
// copied into the record (the caller's slice may be scratch). A withheld R
// is fetched first; the (R,W) message then reaches the coordinating shard
// one hop later. The G-arbiter owns req from here on.
//
//sim:hotpath
func (g *GArbiter) Send(req *Request, ranges []int) {
	req.g = g
	req.ranges = append(req.ranges[:0], ranges...)
	if req.R == nil {
		req.fetchR(g.net)
		return
	}
	g.net.SendCall(stats.CatWrSig, network.SigBytes, garbRequestCB, req)
}

//sim:hotpath
func garbRequestCB(arg any) {
	r := arg.(*Request)
	r.g.request(r)
}

// Request runs a multi-arbiter commit transaction across the given module
// ids, copied into the record. req.R must be non-nil. The decision Reply
// fires at the coordinating shard's combine event.
func (g *GArbiter) Request(req *Request, ranges []int) {
	req.ranges = append(req.ranges[:0], ranges...)
	g.request(req)
}

//sim:hotpath
func (g *GArbiter) request(req *Request) {
	req.g = g
	g.st.CommitRequests++
	g.st.GArbTransactions++
	if len(req.ranges) > 1 {
		g.st.MultiArbCommits++
	}
	sh := &g.shards[req.ranges[0]%len(g.shards)]
	if sh.inFlight >= g.MaxInFlight {
		g.st.GArbQueued++
		sh.push(garbTxn{req: req, since: g.eng.Now()})
		return
	}
	sh.inFlight++
	g.launch(sh, req)
}

// launch starts phase 1 of one transaction on its coordinating shard:
// forward (R,W) to each involved arbiter (one hop each) and reserve;
// replies return to the shard (another hop), and the last reply combines.
// Each arbiter's part rides its leg of the record; the legs are laid out
// before the first send, so their addresses are stable payloads.
//
//sim:hotpath
func (g *GArbiter) launch(sh *garbShard, req *Request) {
	req.sh = sh
	for _, idx := range req.ranges {
		req.legs = append(req.legs, leg{req: req, arb: g.Arbs[idx]})
	}
	for i := range req.legs {
		g.net.SendAfterCall(ProcessLat, stats.CatWrSig, network.SigBytes, reserveCB, &req.legs[i])
	}
}

// reserveCB runs at one involved arbiter: reserve, and reply to the shard.
//
//sim:hotpath
func reserveCB(arg any) {
	l := arg.(*leg)
	g := l.req.g
	g.net.Account(stats.CatRdSig, network.SigBytes) // R rides along
	l.tok, l.ok = l.arb.Reserve(l.req)
	g.net.SendCall(stats.CatOther, network.CtrlBytes, reserveReplyCB, l)
}

// reserveReplyCB collects one reply at the shard; the last one combines.
//
//sim:hotpath
func reserveReplyCB(arg any) {
	l := arg.(*leg)
	r := l.req
	r.replies++
	if l.ok {
		r.reserved = append(r.reserved, l)
	} else {
		r.failed = true
	}
	if r.replies == len(r.legs) {
		r.g.combine(r)
	}
}

// combine decides the transaction and sends each reservation its Confirm
// or Abort, in reply-arrival order. The record's last use is the last of
// those deliveries, or this event if nothing reserved.
//
//sim:hotpath
func (g *GArbiter) combine(req *Request) {
	sh := req.sh
	req.confirms = len(req.reserved)
	if req.failed {
		for _, l := range req.reserved {
			g.net.SendCall(stats.CatOther, network.CtrlBytes, abortCB, l)
		}
		g.st.CommitDenies++
		req.Reply(false, 0)
	} else {
		g.st.CommitGrants++
		*g.Arbs[0].order++
		ord := *g.Arbs[0].order
		for _, l := range req.reserved {
			g.net.SendCall(stats.CatOther, network.CtrlBytes, confirmCB, l)
		}
		req.Reply(true, ord)
	}
	g.release(sh)
	if req.confirms == 0 {
		putRequest(req)
	}
}

//sim:hotpath
func abortCB(arg any) {
	l := arg.(*leg)
	l.arb.Abort(l.tok)
	legDone(l.req)
}

//sim:hotpath
func confirmCB(arg any) {
	l := arg.(*leg)
	l.arb.Confirm(l.tok, l.req)
	legDone(l.req)
}

// legDone retires one Confirm/Abort delivery; the last one recycles the
// record.
//
//sim:hotpath
func legDone(r *Request) {
	r.confirms--
	if r.confirms == 0 {
		putRequest(r)
	}
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
		g.launch(sh, t.req)
		return
	}
	sh.inFlight--
}
