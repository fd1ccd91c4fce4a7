// Package arbiter implements the commit arbitration of BulkSC (paper §4.2):
// a state machine that stores the W signatures of all currently-committing
// chunks and grants a permission-to-commit request only if the request's R
// and W signatures have empty intersections with every stored W.
//
// The package provides the baseline single arbiter (with the RSig commit
// bandwidth optimization of §4.2.2 and the pre-arbitration forward-progress
// mechanism of §3.3) and the distributed arbiter with a global coordinator
// (G-arbiter, §4.2.3) for large machines.
package arbiter

import (
	"fmt"

	"bulksc/internal/chunk"
	"bulksc/internal/fault"
	"bulksc/internal/lineset"
	"bulksc/internal/network"
	"bulksc/internal/sig"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
)

// ProcessLat is the arbiter's internal decision latency; together with the
// two network hops it reproduces the paper's ≈30-cycle commit arbitration
// latency (Table 2).
const ProcessLat sim.Time = 16

// DefaultMaxSimul is Table 2's "Max. Simul. Commits".
const DefaultMaxSimul = 8

// Token identifies a granted, still-committing chunk in an arbiter's list.
type Token uint64

// Request is a permission-to-commit request. The processor fills W always;
// under the RSig optimization R is nil and FetchR lets the arbiter pull it
// only when its W list is non-empty.
type Request struct {
	Proc int
	W    sig.Signature
	// R is the chunk's read signature, or nil if withheld (RSig opt).
	R sig.Signature
	// FetchR asynchronously retrieves R from the processor, charging the
	// extra round trip. Required when R is nil.
	FetchR func(cb func(sig.Signature))
	// TrueW is the chunk's exact write set, carried as simulation metadata
	// (it rides the W message; no extra traffic is charged). The directory
	// uses it to classify aliased lookups and invalidations.
	TrueW *lineset.Set
	// Reply is invoked exactly once at the arbiter's decision event.
	// granted=true means the chunk is serialized at this instant; order is
	// its position in the global commit order. The caller must treat the
	// decision instant as the chunk's logical commit point and model its
	// own notification latency.
	Reply func(granted bool, order uint64)
	// Hold is the requesting chunk's claim on W and TrueW. Every W-list
	// entry (a grant or a G-arbiter reservation) takes it before the Reply
	// and releases it when the entry leaves the list (Done or Abort), so
	// the chunk cannot be recycled while the arbiter or the directory flow
	// behind it still reads them. The zero Hold is inert.
	Hold chunk.Hold
}

// pendingEntry is one W-list slot, stored by value in Arbiter.pending: a
// granted or tentatively reserved W and the Hold that keeps its chunk
// alive while the entry stands.
type pendingEntry struct {
	w    sig.Signature
	hold chunk.Hold
}

// Arbiter is one arbitration module. With a single module it is the whole
// mechanism; with several, each owns an address range and the GArbiter
// coordinates multi-range commits.
type Arbiter struct {
	//lint:poolsafe stable identity fixed at construction
	ID int
	//lint:poolsafe immutable machine-lifetime references wired at construction
	eng *sim.Engine
	//lint:poolsafe immutable machine-lifetime references wired at construction
	net *network.Network
	//lint:poolsafe immutable machine-lifetime references wired at construction
	st *stats.Stats

	// pending holds one entry per granted, still-forwarding W; the
	// directory's Done(tok) is the removal that keeps commit bandwidth
	// from leaking (wait-queue pairing proven by the waiterpair pass).
	//sim:waitq wlist
	pending map[Token]pendingEntry
	nextTok Token
	//lint:poolsafe shared commit-order counter; the owning machine zeroes the pointee between runs
	order    *uint64 // shared global commit-order counter
	MaxSimul int

	// ForwardW is set by the system: it ships a granted W signature to
	// this arbiter's directory module and must eventually call Done(tok).
	// For empty-W commits it is not called.
	//lint:poolsafe stable machine wiring to this arbiter's directory, installed once at construction
	ForwardW func(tok Token, proc int, w sig.Signature, trueW *lineset.Set)

	// Faults optionally injects arbitration faults (internal/fault):
	// injected denials land before the W-list is consulted, modeling a
	// denial storm; injected delays stretch the decision latency. nil
	// injects nothing and draws nothing.
	Faults *fault.Plan

	// Pre-arbitration state (§3.3): while lockProc ≥ 0, commit requests
	// from other processors are denied unconditionally.
	lockProc int
	// lockQueue parks processors waiting for the pre-arbitration lock. A
	// waiter whose transaction dies must be removed (the PR-2 stale-waiter
	// leak), which the waiterpair pass proves over EndPreArbitration.
	//sim:waitq prearb
	lockQueue []lockWaiter
}

type lockWaiter struct {
	proc    int
	granted func()
}

// New returns an arbiter sharing the global order counter.
func New(id int, eng *sim.Engine, net *network.Network, st *stats.Stats, order *uint64) *Arbiter {
	return &Arbiter{
		ID:       id,
		eng:      eng,
		net:      net,
		st:       st,
		pending:  make(map[Token]pendingEntry),
		order:    order,
		MaxSimul: DefaultMaxSimul,
		lockProc: -1,
	}
}

// Reset returns the arbiter to its just-constructed state in place: the
// pending W-list is emptied (retaining the map's buckets), the token
// counter restarts, the pre-arbitration lock is released and its queue
// scrubbed (zeroing entries first so queued grant closures from a finished
// run are released, not replayed), and the per-run fault plan is detached.
// MaxSimul returns to the Table 2 default; a run wanting a different value
// sets it after Reset, exactly as it would after New.
func (a *Arbiter) Reset() {
	clear(a.pending)
	a.nextTok = 0
	a.MaxSimul = DefaultMaxSimul
	a.Faults = nil
	a.lockProc = -1
	clear(a.lockQueue) // release grant closures before truncating
	a.lockQueue = a.lockQueue[:0]
}

// Pending returns the number of W signatures currently held.
func (a *Arbiter) Pending() int { return len(a.pending) }

func (a *Arbiter) noteWList() { a.st.WListChanged(uint64(a.eng.Now()), len(a.pending)) }

// conflicts reports whether any pending W intersects r or w (either may be
// nil).
//
//sim:hotpath
func (a *Arbiter) conflicts(r, w sig.Signature) bool {
	// An ∃-query over side-effect-free Intersects: the answer is the same
	// whatever order the pending entries are visited in, and no counter or
	// state is touched along the way, so Go's randomized map order cannot
	// reach simulation state.
	//lint:deterministic order-independent existence query over pure Intersects
	for _, p := range a.pending {
		if r != nil && p.w.Intersects(r) {
			return true
		}
		if w != nil && !w.Empty() && p.w.Intersects(w) {
			return true
		}
	}
	return false
}

// Request processes a permission-to-commit request after ProcessLat cycles
// of decision latency. It implements the RSig optimization: if the W list
// is empty, the request is granted without ever seeing R.
func (a *Arbiter) Request(req *Request) {
	a.st.CommitRequests++
	a.eng.After(ProcessLat+sim.Time(a.Faults.ArbDelay(req.Proc)), func() { a.decide(req) })
}

//sim:hotpath
func (a *Arbiter) decide(req *Request) {
	if a.Faults.ArbDeny(req.Proc) {
		a.deny(req)
		return
	}
	if a.lockProc >= 0 && a.lockProc != req.Proc {
		a.deny(req)
		return
	}
	if len(a.pending) >= a.MaxSimul {
		a.deny(req)
		return
	}
	if len(a.pending) == 0 {
		a.grant(req)
		return
	}
	// Non-empty list: R is needed. Fetch it if the RSig optimization
	// withheld it.
	if req.R == nil {
		if req.FetchR == nil {
			panic("arbiter: request without R or FetchR")
		}
		a.st.RSigRequired++
		//lint:alloc per-RSig-fetch callback; commit-request rate, not access rate
		req.FetchR(func(r sig.Signature) {
			req.R = r
			a.decideWithR(req)
		})
		return
	}
	a.decideWithR(req)
}

func (a *Arbiter) decideWithR(req *Request) {
	// Revalidate lock and capacity: they may have changed while R was in
	// flight.
	if (a.lockProc >= 0 && a.lockProc != req.Proc) || len(a.pending) >= a.MaxSimul {
		a.deny(req)
		return
	}
	if a.conflicts(req.R, req.W) {
		a.deny(req)
		return
	}
	a.grant(req)
}

func (a *Arbiter) deny(req *Request) {
	a.st.CommitDenies++
	req.Reply(false, 0)
}

//sim:hotpath
func (a *Arbiter) grant(req *Request) {
	a.st.CommitGrants++
	*a.order++
	ord := *a.order
	if req.Proc == a.lockProc {
		a.unlock()
	}
	if req.W.Empty() {
		a.st.EmptyWCommits++
		req.Reply(true, ord)
		return
	}
	a.nextTok++
	tok := a.nextTok
	req.Hold.Take()
	a.pending[tok] = pendingEntry{w: req.W, hold: req.Hold}
	a.noteWList()
	req.Reply(true, ord)
	if a.ForwardW == nil {
		panic("arbiter: ForwardW not wired")
	}
	a.ForwardW(tok, req.Proc, req.W, req.TrueW)
}

// Done removes a fully-committed W from the list and releases the entry's
// Hold on the chunk; called by the directory when all invalidation
// acknowledgements have been collected.
//
//sim:waitq final wlist
func (a *Arbiter) Done(tok Token) {
	e, ok := a.pending[tok]
	if !ok {
		panic(fmt.Sprintf("arbiter %d: Done for unknown token %d", a.ID, tok))
	}
	delete(a.pending, tok)
	a.noteWList()
	e.hold.Release()
}

// PreArbitrate requests exclusive commit rights for proc (§3.3 forward
// progress). granted fires (after arbitration latency) once the lock is
// held; the lock is released automatically when proc's next commit is
// granted, or by EndPreArbitration.
func (a *Arbiter) PreArbitrate(proc int, granted func()) {
	a.st.PreArbitrations++
	a.eng.After(ProcessLat, func() {
		if a.lockProc < 0 {
			a.lockProc = proc
			granted()
			return
		}
		a.lockQueue = append(a.lockQueue, lockWaiter{proc: proc, granted: granted})
	})
}

// EndPreArbitration releases proc's exclusive lock without a commit (e.g.
// the chunk squashed for another reason and the processor gave up). If proc
// is still queued rather than holding the lock, its entry is removed so a
// later unlock cannot hand the lock to a processor that abandoned the
// request — a stale grant would fire a callback into a chunk that no longer
// exists and stall every other waiter behind the orphaned lock.
//
//sim:waitq final prearb
func (a *Arbiter) EndPreArbitration(proc int) {
	keep := a.lockQueue[:0]
	for _, w := range a.lockQueue {
		if w.proc != proc {
			keep = append(keep, w)
		}
	}
	a.lockQueue = keep
	if a.lockProc == proc {
		a.unlock()
	}
}

//sim:waitq deq prearb
func (a *Arbiter) unlock() {
	a.lockProc = -1
	if len(a.lockQueue) > 0 {
		next := a.lockQueue[0]
		a.lockQueue = a.lockQueue[1:]
		a.lockProc = next.proc
		next.granted()
	}
}

// Locked reports the processor holding the pre-arbitration lock, or -1.
func (a *Arbiter) Locked() int { return a.lockProc }
