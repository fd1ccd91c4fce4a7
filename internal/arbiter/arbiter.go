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

// pendingEntry is one W-list slot: a granted or tentatively reserved W,
// its token, and the Hold that keeps its chunk alive while the entry
// stands.
type pendingEntry struct {
	tok  Token
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

	// pending holds one entry per granted, still-forwarding W, in
	// insertion order; grant and Reserve cap it at MaxSimul, so lookups
	// are short linear scans. The directory's Done(tok) is the removal
	// that keeps commit bandwidth from leaking (wait-queue pairing proven
	// by the waiterpair pass).
	//sim:waitq wlist
	pending []pendingEntry
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
	lockQueue []*lockWaiter
}

// lockWaiter is one pre-arbitration request: the payload of its decision
// event and, while the lock is taken, its place in lockQueue.
type lockWaiter struct {
	a       *Arbiter
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
		order:    order,
		MaxSimul: DefaultMaxSimul,
		lockProc: -1,
	}
}

// Reset returns the arbiter to its just-constructed state in place: the
// pending W-list is emptied (retaining its capacity), the token
// counter restarts, the pre-arbitration lock is released and its queue
// scrubbed (zeroing entries first so queued grant closures from a finished
// run are released, not replayed), and the per-run fault plan is detached.
// MaxSimul returns to the Table 2 default; a run wanting a different value
// sets it after Reset, exactly as it would after New.
func (a *Arbiter) Reset() {
	clear(a.pending)
	a.pending = a.pending[:0]
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
	for i := range a.pending {
		p := &a.pending[i]
		if r != nil && p.w.Intersects(r) {
			return true
		}
		if w != nil && !w.Empty() && p.w.Intersects(w) {
			return true
		}
	}
	return false
}

// Send delivers req to this arbiter one network hop from now, charging
// wBytes for the W message. The arbiter owns req from here on.
//
//sim:hotpath
func (a *Arbiter) Send(req *Request, wBytes int) {
	req.arb = a
	a.net.SendCall(stats.CatWrSig, wBytes, arbRequestCB, req)
}

//sim:hotpath
func arbRequestCB(arg any) {
	r := arg.(*Request)
	r.arb.Request(r)
}

// Request processes a permission-to-commit request after ProcessLat cycles
// of decision latency. It implements the RSig optimization: if the W list
// is empty, the request is granted without ever seeing R.
//
//sim:hotpath
func (a *Arbiter) Request(req *Request) {
	a.st.CommitRequests++
	req.arb = a
	a.eng.AfterCall(ProcessLat+sim.Time(a.Faults.ArbDelay(req.Proc)), decideCB, req)
}

//sim:hotpath
func decideCB(arg any) {
	r := arg.(*Request)
	r.arb.decide(r)
}

// decide is the decision event. A request it denies or grants is at its
// last use; one that needs a withheld R continues at decideWithR.
//
//sim:hotpath
func (a *Arbiter) decide(req *Request) {
	switch {
	case a.Faults.ArbDeny(req.Proc),
		a.lockProc >= 0 && a.lockProc != req.Proc,
		len(a.pending) >= a.MaxSimul:
		a.deny(req)
	case len(a.pending) == 0:
		a.grant(req)
	case req.R == nil:
		// Non-empty list: R is needed, and the RSig optimization withheld
		// it.
		a.st.RSigRequired++
		req.fetchR(a.net)
		return
	default:
		a.decideWithR(req)
		return
	}
	putRequest(req)
}

// decideWithR decides a request whose R is at hand; the request is at its
// last use afterwards.
//
//sim:hotpath
func (a *Arbiter) decideWithR(req *Request) {
	// Revalidate lock and capacity: they may have changed while R was in
	// flight.
	if (a.lockProc >= 0 && a.lockProc != req.Proc) || len(a.pending) >= a.MaxSimul || a.conflicts(req.R, req.W) {
		a.deny(req)
	} else {
		a.grant(req)
	}
	putRequest(req)
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
	tok := a.insert(req)
	req.Reply(true, ord)
	if a.ForwardW == nil {
		panic("arbiter: ForwardW not wired")
	}
	a.ForwardW(tok, req.Proc, req.W, req.TrueW)
}

// insert appends req's W to the list under a fresh token, taking the
// request's Hold.
//
//sim:hotpath
func (a *Arbiter) insert(req *Request) Token {
	a.nextTok++
	tok := a.nextTok
	req.Hold.Take()
	a.pending = append(a.pending, pendingEntry{tok: tok, w: req.W, hold: req.Hold})
	a.noteWList()
	return tok
}

// find returns tok's index in the W list, or -1.
//
//sim:hotpath
func (a *Arbiter) find(tok Token) int {
	for i := range a.pending {
		if a.pending[i].tok == tok {
			return i
		}
	}
	return -1
}

// remove drops tok's entry, keeping the list in insertion order, and
// releases its Hold. An unknown token is a protocol error.
//
//sim:hotpath
//sim:waitq deq wlist
func (a *Arbiter) remove(tok Token, op string) {
	i := a.find(tok)
	if i < 0 {
		panic(fmt.Sprintf("arbiter %d: %s for unknown token %d", a.ID, op, tok))
	}
	h := a.pending[i].hold
	n := copy(a.pending[i:], a.pending[i+1:])
	a.pending[i+n] = pendingEntry{}
	a.pending = a.pending[:i+n]
	a.noteWList()
	h.Release()
}

// Done removes a fully-committed W from the list and releases the entry's
// Hold on the chunk; called by the directory when all invalidation
// acknowledgements have been collected.
//
//sim:waitq final wlist
func (a *Arbiter) Done(tok Token) { a.remove(tok, "Done") }

// PreArbitrate requests exclusive commit rights for proc (§3.3 forward
// progress). granted fires (after arbitration latency) once the lock is
// held; the lock is released automatically when proc's next commit is
// granted, or by EndPreArbitration.
func (a *Arbiter) PreArbitrate(proc int, granted func()) {
	a.st.PreArbitrations++
	a.eng.AfterCall(ProcessLat, lockArriveCB, &lockWaiter{a: a, proc: proc, granted: granted})
}

// lockArriveCB is a pre-arbitration request's decision event: take the
// free lock, or queue behind its holder.
func lockArriveCB(arg any) {
	w := arg.(*lockWaiter)
	a := w.a
	if a.lockProc < 0 {
		a.lockProc = w.proc
		w.granted()
		return
	}
	a.lockQueue = append(a.lockQueue, w)
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
	clear(a.lockQueue[len(keep):])
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
		a.lockQueue[0] = nil
		a.lockQueue = a.lockQueue[1:]
		a.lockProc = next.proc
		next.granted()
	}
}

// Locked reports the processor holding the pre-arbitration lock, or -1.
func (a *Arbiter) Locked() int { return a.lockProc }
