package proc

import (
	"fmt"

	"bulksc/internal/bdm"
	"bulksc/internal/cache"
	"bulksc/internal/chunk"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sig"
	"bulksc/internal/sim"
	"bulksc/internal/slab"
	"bulksc/internal/stats"
	"bulksc/internal/workload"
)

// Opts selects the BulkSC configuration variants of the paper's Table 2.
type Opts struct {
	// RSigOpt enables the R-signature commit bandwidth optimization
	// (§4.2.2); part of the baseline BulkSC system.
	RSigOpt bool
	// Dypvt enables the dynamically-private data optimization (§5.2).
	Dypvt bool
	// Stpvt enables the statically-private data optimization (§5.1);
	// stack pages are the private section, as in the paper's evaluation.
	Stpvt bool
	// PreArbThreshold is the squash streak that triggers pre-arbitration.
	PreArbThreshold int
}

// DefaultOpts returns the BSC_base configuration: RSig on, private-data
// optimizations off.
func DefaultOpts() Opts { return Opts{RSigOpt: true, PreArbThreshold: 6} }

// minChunk is the floor of exponential chunk shrinking.
const minChunk = 32

// batchInstrs bounds how many instructions one step event dispatches
// before yielding, setting the timing granularity of within-chunk events.
const batchInstrs = 32

// BulkProc is one BulkSC processor: core, checkpoints, L1 and BDM.
type BulkProc struct {
	// The fields every step event reads come first, so one dispatch
	// touches as few host cache lines of the processor as possible.
	scheduled    bool
	finished     bool
	pendingClose bool         // set-overflow requested an early chunk close
	cur          *chunk.Chunk // the executing chunk, nil between chunks
	// inflight holds the outstanding line fetches, at most par.MSHRs (a
	// handful) at a time — a linear scan over the slice beats the map it
	// replaced, and its insertion order is deterministic for the poison
	// walk in ApplyCommit.
	inflight []*fetchReq
	// misses is a head-indexed FIFO (see ConvProc.misses).
	misses   []missEntry
	missHead int
	dispatch uint64 // instructions dispatched (incl. later squashed)
	f        fetcher
	// fwd memoizes the last negative store-forwarding lookup of a sync
	// micro-op (see readValue).
	fwd fwdMemo

	//lint:poolsafe stable identity fixed at construction
	id   int
	env  *Env
	par  Params
	opts Opts
	l1   *cache.L1

	checkpoints []fetchState // per slot

	chunks   []*chunk.Chunk // live chunks, oldest first (incl. committing)
	slotBusy []bool
	chunkSeq uint64
	storeSeq uint64

	// pool recycles chunks. A squashed chunk is Put once no commit request
	// of its is still in flight; a committed one is Adopted once its grant
	// has arrived and its last Hold has dropped (see retire). All callbacks
	// that can outlive a squash carry a Gen guard. Across warm machine
	// resets the pool is Drained, not dropped: chunk structs and Log
	// storage survive, set/write-buffer arrays return to arena.
	pool chunk.Pool
	// commitReqFree recycles permission-to-commit request records.
	// Env.Commit consumes its argument synchronously (core.routeCommit
	// copies what travels onward into the arbiter request), so sendCommit
	// can return the record to this list as soon as the call comes back;
	// steady-state arbitration allocates no request state at all.
	//lint:poolsafe recycled records are fully reinitialized at reuse
	commitReqFree []*CommitReq
	// arena recycles the power-of-two backing arrays of chunk sets and
	// write buffers across runs (via pool.Drain); recycled arrays are
	// zeroed and size-matched, so the cold capacity trajectory is
	// re-walked from pooled storage instead of the allocator.
	//lint:poolsafe size-class storage recycler; recycled arrays are zeroed and identity-neutral
	arena slab.Pool[uint64]
	// retryFree recycles denial-retry records (see commitRetry).
	//lint:poolsafe recycled records are fully reinitialized at reuse
	retryFree []*commitRetry
	// grantFn is the bound grantCB, the grant delivery's callback.
	//lint:poolsafe bound method value captured once at construction
	grantFn func(any)
	// preArbGrantFn is the bound pre-arbitration grant continuation,
	// handed to Env.PreArbitrate on every request.
	//lint:poolsafe bound method value captured once at construction
	preArbGrantFn func()
	// privScratch is the reusable drain buffer for PrivateBuffer.DrainSlot.
	privScratch []bdm.PrivEntry

	privBuf *bdm.PrivateBuffer

	// liveSum is the live-summary signature: a conservative union of every
	// active chunk's R and W, maintained incrementally on access append
	// (chunk.Sum mirrors every shared-line insert) and rebuilt when a
	// chunk leaves the active set (commit retirement, squash). ApplyCommit
	// early-outs the whole disambiguation walk with one Intersects against
	// it (DESIGN.md §16).
	liveSum sig.Signature
	// inflightSig conservatively contains the line of every in-flight
	// fetch: add-only on request issue (and on blocked-install
	// re-insertion), cleared only when the MSHR set drains empty, so it is
	// always a superset of the live in-flight line set. ApplyCommit skips
	// the per-commit poison scan when the incoming W cannot intersect it.
	inflightSig sig.Signature

	// reqFree recycles fetch-request records together with their bound
	// arrival callbacks and waiter storage. Safe across runs: every record
	// in the pool has had its waiters emptied by freeReq, and newReq
	// overwrites the line and poison state at reuse (the stale grant-state
	// field is written in arrive before the retry path can read it).
	//lint:poolsafe recycled records are fully reinitialized at reuse
	reqFree []*fetchReq

	squashStreak  int
	preArbing     bool
	preArbGranted bool
	commitCount   uint64 // chunks this processor has committed

	// Liveness bookkeeping for the core watchdog: monotone per-processor
	// counters plus short diagnostic trails. Pure observation — updating
	// them schedules nothing, draws nothing and touches no protocol
	// state, so the determinism hashes are unaffected.
	denyCount   uint64
	squashCount uint64 // squash events (not victims)
	trail       livenessTrail

	doneAt sim.Time
}

type fetchReq struct {
	p       *BulkProc
	l       mem.Line
	st      cache.LineState // granted state, kept across install retries
	waiters []bulkWaiter
	// poisoned marks a fetch overtaken by a committing W signature: the
	// reply data is stale the moment it arrives, so the line is not
	// installed (the MSHR "invalidate on arrival" rule). Without this,
	// the racing reply would reinstall a line the directory no longer
	// records us as sharing, and later commits would miss us.
	poisoned bool
	// arriveFn is the bound arrival continuation, created once per pooled
	// record and handed to Env.ReadLine on every reuse.
	arriveFn func(stateHint int)
}

// Waiter kinds: what to do for one fill-dependent consumer when the line
// (or its poisoned tombstone) arrives. The record replaces the per-fetch
// capture closures of doLoad, pinOnArrival and ensureLine.
const (
	wLoad   uint8 = iota // speculative load: complete miss, refresh value
	wPin                 // store miss: pin the line for the chunk
	wEnsure              // sync micro-op: re-dispatch when present
)

type bulkWaiter struct {
	kind   uint8
	hadFwd bool         // wLoad: value was store-forwarded at dispatch
	ch     *chunk.Chunk // chunk the access belongs to
	gen    uint64       // chunk generation guard
	idx    uint64       // wLoad: dispatch index in the miss FIFO
	logIdx int          // wLoad: access-log slot to refresh
	a      mem.Addr     // wLoad: accessed address
}

type missEntry struct {
	idx  uint64
	done bool
}

// NewBulkProc builds processor id over stream ins.
func NewBulkProc(id int, env *Env, par Params, opts Opts, ins []workload.Instr) *BulkProc {
	p := &BulkProc{
		id:          id,
		env:         env,
		par:         par,
		opts:        opts,
		l1:          cache.NewL1(256, 4), // 32 KB / 4-way / 32 B
		f:           newFetcher(ins),
		checkpoints: make([]fetchState, par.MaxChunks),
		slotBusy:    make([]bool, par.MaxChunks),
		privBuf:     bdm.NewPrivateBuffer(bdm.DefaultPrivBufLines),
		inflight:    make([]*fetchReq, 0, par.MSHRs),
	}
	p.grantFn = p.grantCB
	p.preArbGrantFn = p.preArbGrant
	p.pool.SigRecycler = env.SigRecycle
	p.liveSum = env.Sigs()
	p.inflightSig = env.Sigs()
	return p
}

// Reset returns the processor to its just-constructed state over a new
// instruction stream, retaining the expensive construction-time storage:
// the L1 tag arrays (scrubbed in place), the map buckets, the checkpoint
// and FIFO backing arrays, the private buffer, and the fetch-request pool.
//
// The per-proc chunk pool is Drained, not retained as-is: chunk sets and
// write buffers are open-addressed tables whose iteration order depends
// on their capacity growth history, so a warm pool seeded with grown
// tables would walk lines in a different order than a cold machine and
// the determinism hashes would diverge. Drain restores every pooled
// chunk's tables to the zero-value cold shape — the first few chunks of a
// warm run re-grow exactly as a cold run does — while parking the grown
// arrays in the per-proc arena so the re-growth recycles storage instead
// of allocating (the signatures are dropped too; Get rebuilds them from
// the new run's factory).
func (p *BulkProc) Reset(ins []workload.Instr, par Params, opts Opts) {
	p.par = par
	p.opts = opts
	p.l1.Reset()
	p.f = newFetcher(ins)
	if len(p.checkpoints) != par.MaxChunks {
		p.checkpoints = make([]fetchState, par.MaxChunks)
		p.slotBusy = make([]bool, par.MaxChunks)
	} else {
		clear(p.checkpoints)
		clear(p.slotBusy)
	}
	clear(p.chunks) // release chunk references before truncating
	p.chunks = p.chunks[:0]
	p.cur = nil
	p.chunkSeq = 0
	p.storeSeq = 0
	p.pool.Drain()
	p.privScratch = p.privScratch[:0]
	p.privBuf.Clear()
	// The filter signatures are re-drawn rather than Cleared: the new
	// run's factory may produce a different kind or geometry, and the old
	// objects go back through the recycler like every dropped chunk sig.
	if p.env.SigRecycle != nil {
		p.env.SigRecycle(p.liveSum)
		p.env.SigRecycle(p.inflightSig)
	}
	p.liveSum = p.env.Sigs()
	p.inflightSig = p.env.Sigs()
	clear(p.inflight)
	p.inflight = p.inflight[:0]
	p.misses = p.misses[:0]
	p.missHead = 0
	p.dispatch = 0
	p.fwd = fwdMemo{}
	p.squashStreak = 0
	p.preArbing = false
	p.preArbGranted = false
	p.commitCount = 0
	p.pendingClose = false
	p.denyCount = 0
	p.squashCount = 0
	p.trail = livenessTrail{}
	p.scheduled = false
	p.finished = false
	p.doneAt = 0
}

// Start schedules the processor's first dispatch event.
func (p *BulkProc) Start() { p.kick() }

// Finished reports whether the stream has fully committed.
func (p *BulkProc) Finished() bool { return p.finished }

// ID returns the processor's id.
func (p *BulkProc) ID() int { return p.id }

// DoneAt returns the cycle the last chunk committed.
func (p *BulkProc) DoneAt() sim.Time { return p.doneAt }

// L1 exposes the cache for tests.
func (p *BulkProc) L1() *cache.L1 { return p.l1 }

// ChunksConstructed reports how many chunks this processor's pool has
// had to build over its lifetime; every other chunk was recycled.
func (p *BulkProc) ChunksConstructed() uint64 { return p.pool.Constructed() }

// Progress reports the processor's monotone liveness counters: chunks
// committed, commit denials received, and squash events suffered. The core
// watchdog samples these to detect starvation and squash loops.
func (p *BulkProc) Progress() (commits, denials, squashes uint64) {
	return p.commitCount, p.denyCount, p.squashCount
}

// LivenessTrail formats the last few denied chunks and squash events for
// watchdog diagnostics.
func (p *BulkProc) LivenessTrail() string { return p.trail.String() }

// DebugState summarizes the interpreter position for deadlock diagnostics.
func (p *BulkProc) DebugState() string {
	cur := "nil"
	if p.cur != nil {
		cur = p.cur.String()
	}
	return fmt.Sprintf("bulk{fin=%v pos=%d/%d phase=%d barriers=%d live=%d cur=%s streak=%d preArb=%v inflight=%d}",
		p.finished, p.f.pos, len(p.f.ins), p.f.barPhase, p.f.barriersDone,
		len(p.chunks), cur, p.squashStreak, p.preArbing, len(p.inflight))
}

func (p *BulkProc) kick() {
	if p.scheduled || p.finished {
		return
	}
	p.scheduled = true
	p.env.Eng.AfterCall(0, bulkStepCB, p)
}

func (p *BulkProc) kickAt(d sim.Time) {
	if p.scheduled || p.finished {
		return
	}
	p.scheduled = true
	p.env.Eng.AfterCall(d, bulkStepCB, p)
}

//sim:hotpath
func bulkStepCB(arg any) { arg.(*BulkProc).step() }

// ---------------------------------------------------------------------------
// Dispatch loop
// ---------------------------------------------------------------------------

func (p *BulkProc) step() {
	p.scheduled = false
	if p.finished {
		return
	}
	consumed := 0
	for consumed < batchInstrs {
		if p.cur == nil {
			if !p.openChunk() {
				return // stalled on chunk slots; grant arrival kicks
			}
		}
		if len(p.inflight) >= p.par.MSHRs {
			return // stalled on MSHRs; fetch arrival kicks
		}
		if p.robFull() {
			return // stalled on ROB; miss completion kicks
		}
		// One indexed load serves both the end-of-stream test and the
		// dispatch switch (done() is current().Kind == OpEnd).
		in := p.f.current()
		if in.Kind == workload.OpEnd {
			p.endOfStream()
			return
		}
		switch in.Kind {
		case workload.OpCompute:
			n := p.f.computeLeft
			if n == 0 {
				n = in.N
			}
			take := uint32(batchInstrs - consumed)
			if take > n {
				take = n
			}
			n -= take
			if n == 0 {
				p.f.computeLeft = 0
				p.f.pos++
			} else {
				p.f.computeLeft = n
			}
			p.account(int(take))
			consumed += int(take)
		case workload.OpLoad:
			p.doLoad(in.Addr)
			p.f.pos++
			p.account(1)
			consumed++
		case workload.OpStore:
			p.doStore(in.Addr, p.token())
			p.f.pos++
			p.account(1)
			consumed++
		case workload.OpAcquire:
			spin := p.doAcquire(in.Addr)
			if spin {
				// A hot spin iteration costs a handful of instructions
				// (load, test, branch, pause).
				p.account(6)
				consumed += 6
			} else {
				p.account(2)
				consumed += 2
			}
			if spin {
				p.maybeCloseChunk()
				p.yieldFor(p.par.SpinBackoff)
				return
			}
		case workload.OpRelease:
			p.doStore(in.Addr, 0)
			p.f.pos++
			p.account(1)
			consumed++
		case workload.OpBarrier:
			waiting, ops := p.doBarrier(in)
			if waiting {
				ops += 4 // spin-loop overhead instructions
			}
			p.account(ops)
			consumed += ops
			if waiting {
				p.maybeCloseChunk()
				p.yieldFor(p.par.SpinBackoff)
				return
			}
		case workload.OpIO:
			// §4.1.3: uncached operations cannot be speculative. Close
			// the current chunk, wait for every in-flight chunk to
			// commit, perform the operation, then resume in a new chunk.
			if p.cur.Executed > 0 {
				p.pendingClose = true
				p.maybeCloseChunk()
				return // grant arrival kicks
			}
			if len(p.chunks) > 1 {
				// The empty current chunk waits behind committing ones.
				return
			}
			p.f.pos++
			p.account(1)
			consumed++
			// The operation is non-speculative: close the one-instruction
			// chunk immediately (its signatures are empty, so it can
			// never be squashed and the I/O never re-executes).
			p.pendingClose = true
			p.maybeCloseChunk()
			p.yieldFor(sim.Time(in.N))
			return
		default:
			panic(fmt.Sprintf("proc %d: unexpected op %v", p.id, in.Kind))
		}
		p.maybeCloseChunk()
		if p.cur == nil && p.f.done() {
			// Stream drained exactly at a chunk boundary.
			p.endOfStream()
			return
		}
	}
	p.yieldFor(sim.Time(consumed) / sim.Time(p.par.IssueWidth))
}

// account charges n dispatched instructions to the current chunk.
func (p *BulkProc) account(n int) {
	p.dispatch += uint64(n)
	p.cur.Executed += n
}

// maybeCloseChunk completes the executing chunk when it has reached its
// instruction budget or a cache-set overflow forced an early end.
func (p *BulkProc) maybeCloseChunk() {
	if p.cur != nil && (p.pendingClose || p.cur.Executed >= p.cur.Target) {
		p.pendingClose = false
		p.closeChunk()
	}
}

func (p *BulkProc) yieldFor(d sim.Time) {
	if d < 1 {
		d = 1
	}
	p.kickAt(d)
}

func (p *BulkProc) token() uint64 {
	p.storeSeq++
	return uint64(p.id+1)<<40 | p.storeSeq
}

func (p *BulkProc) robFull() bool {
	for p.missHead < len(p.misses) && p.misses[p.missHead].done {
		p.missHead++
	}
	if p.missHead == len(p.misses) {
		p.misses = p.misses[:0]
		p.missHead = 0
	}
	return p.missHead < len(p.misses) && p.dispatch-p.misses[p.missHead].idx >= uint64(p.par.ROB)
}

// missComplete marks the oldest outstanding miss with dispatch index idx
// done.
func (p *BulkProc) missComplete(idx uint64) {
	for i := p.missHead; i < len(p.misses); i++ {
		if p.misses[i].idx == idx && !p.misses[i].done {
			p.misses[i].done = true
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

// forwardValue returns the newest buffered value for addr among the
// uncommitted chunks (store-to-load forwarding within and across chunks).
// Chunks that have been granted commit are excluded: their stores are
// already part of committed memory, where later commits may legitimately
// overwrite them — forwarding from a lingering buffer would serve stale
// values.
//
//sim:hotpath
func (p *BulkProc) forwardValue(a mem.Addr) (uint64, bool) {
	for i := len(p.chunks) - 1; i >= 0; i-- {
		ch := p.chunks[i]
		if !ch.Active() {
			continue
		}
		if v, ok := ch.Forward(a); ok {
			return v, true
		}
	}
	return 0, false
}

// fwdMemoChunks is how many live chunks a forwarding memo key covers:
// Table 2's two chunks in flight. Longer lists always take the full scan.
const fwdMemoChunks = 2

// fwdMemo is one negative store-forwarding result: no active chunk
// buffers a word at address a. Its key is the live chunk list as it was
// then, each chunk by pointer, Gen, State and write-buffer size. The key
// is exact: a write buffer only grows between resets, every reset is a
// Put or Adopt that bumps Gen, and buffering a's word would grow it — so
// an unchanged key proves a is still unbuffered. Positive results are not
// memoized (a later store to a overwrites the value without growing the
// buffer).
//
// n is the key's chunk count, -1 for no memo. The zero memo claims only
// that an empty chunk list buffers nothing, which is always true.
type fwdMemo struct {
	a   mem.Addr
	n   int
	key [fwdMemoChunks]fwdKey
}

type fwdKey struct {
	ch    *chunk.Chunk
	gen   uint64
	state chunk.State
	wlen  int
}

// holds reports whether the memo answers a for the live list chunks.
//
//sim:hotpath
func (m *fwdMemo) holds(a mem.Addr, chunks []*chunk.Chunk) bool {
	if m.n != len(chunks) || m.a != a {
		return false
	}
	for i := range m.key[:m.n] {
		k, ch := &m.key[i], chunks[i]
		if k.ch != ch || k.gen != ch.Gen || k.state != ch.State || k.wlen != ch.WriteBuf.Len() {
			return false
		}
	}
	return true
}

// remember records that a is unbuffered across chunks, if the list fits
// the key.
//
//sim:hotpath
func (m *fwdMemo) remember(a mem.Addr, chunks []*chunk.Chunk) {
	if len(chunks) > fwdMemoChunks {
		m.n = -1
		return
	}
	m.a, m.n = a, len(chunks)
	for i, ch := range chunks {
		m.key[i] = fwdKey{ch: ch, gen: ch.Gen, state: ch.State, wlen: ch.WriteBuf.Len()}
	}
}

// readValue returns the value a sync micro-op's load of addr observes
// right now: forwarding first, then committed memory. A spin re-check
// repeats this load of the same unbuffered lock or flag word while nothing
// in the chunk list changes, so a negative forwarding result is memoized
// (fwdMemo). Ordinary loads (doLoad) take the plain scan: a static load
// runs once per chunk execution and does not repeat back to back.
//
//sim:hotpath
func (p *BulkProc) readValue(a mem.Addr) uint64 {
	if !p.fwd.holds(a, p.chunks) {
		if v, ok := p.forwardValue(a); ok {
			return v
		}
		p.fwd.remember(a, p.chunks)
	}
	return p.env.Mem.Load(a)
}

// ---------------------------------------------------------------------------
// Loads and stores
// ---------------------------------------------------------------------------

//sim:hotpath
func (p *BulkProc) doLoad(a mem.Addr) {
	priv := p.opts.Stpvt && p.env.Pages.Private(a)
	fwdVal, hadFwd := p.forwardValue(a)
	v := fwdVal
	if !hadFwd {
		v = p.env.Mem.Load(a)
	}
	p.cur.RecordLoad(a, v, priv)
	logIdx := len(p.cur.Log) - 1
	l := a.LineOf()
	if p.l1.Access(l) != nil {
		p.env.St.L1Hits++
		return
	}
	p.env.St.L1Misses++
	idx := p.dispatch
	p.misses = append(p.misses, missEntry{idx: idx})
	ch := p.cur
	ch.Pending++
	// The wLoad waiter completes the miss and — when the value was not
	// store-forwarded — refreshes the logged value at arrival: a missing
	// load architecturally reads when the data arrives, after the home
	// directory has snooped the owner. This matters for lines whose owner
	// updates them under the dynamically-private optimization: those
	// commits are invisible to arbitration, so the value must be the one
	// the snoop supplies, not the one at dispatch.
	p.fetchWaiter(l, bulkWaiter{
		kind: wLoad, hadFwd: hadFwd,
		ch: ch, gen: ch.Gen, idx: idx, logIdx: logIdx, a: a,
	})
}

//sim:hotpath
func (p *BulkProc) doStore(a mem.Addr, val uint64) {
	l := a.LineOf()
	w := p.l1.Probe(l)
	priv := false
	switch {
	case p.opts.Stpvt && p.env.Pages.Private(a):
		priv = true
	case p.writtenPrivatelyByLive(l):
		// Follow the predecessor chunk's classification.
		priv = true
	case p.writtenByLive(l):
		priv = false
	case w != nil && w.State == cache.Dirty:
		// First write in this chunk to a dirty non-speculative line.
		if p.opts.Dypvt && p.privBuf.Save(l, p.cur.Slot, p.env.Mem.LoadLine(l)) {
			// §5.2: keep the line dirty, save the pre-update version,
			// route the write to Wpriv, and skip the writeback.
			priv = true
		} else {
			// Base BulkSC — or a private-buffer overflow (§5.2): the
			// committed version is written back first so memory holds it
			// while the cache copy turns speculative, and the write goes
			// through W.
			if p.opts.Dypvt {
				p.env.St.PrivBufOverflows++
			}
			p.env.St.AddTraffic(stats.CatData, network.DataBytes)
			p.env.WritebackLine(p.id, l, false)
			w.State = cache.Shared
		}
	}
	p.cur.RecordStore(a, val, priv)
	if w != nil {
		p.l1.Pin(l, p.cur.Slot)
		return
	}
	// Store miss: the line must be received before the chunk commits, but
	// the store itself retires immediately (stores are stall-free, §6).
	if !p.l1.RoomFor(l) {
		// Cache-set overflow: finish the chunk early (§4.1.2). The store
		// has already been recorded in this chunk; the close is deferred
		// to the dispatch loop so accounting stays consistent.
		p.env.St.SetOverflowCuts++
		p.pendingClose = true
	}
	p.pinOnArrival(l, p.cur)
}

// pinOnArrival fetches l (if not already in flight) and pins it for ch
// when it arrives.
//
//sim:hotpath
func (p *BulkProc) pinOnArrival(l mem.Line, ch *chunk.Chunk) {
	p.env.St.L1Misses++
	ch.Pending++
	p.fetchWaiter(l, bulkWaiter{kind: wPin, ch: ch, gen: ch.Gen})
}

//sim:hotpath
func (p *BulkProc) writtenByLive(l mem.Line) bool {
	for _, ch := range p.chunks {
		if ch.Active() && ch.WroteLine(l) {
			return true
		}
	}
	return false
}

//sim:hotpath
func (p *BulkProc) writtenPrivatelyByLive(l mem.Line) bool {
	for _, ch := range p.chunks {
		if !ch.Active() {
			continue
		}
		if ch.PrivSet.Has(l) {
			return true
		}
	}
	return false
}

// findReq returns the outstanding fetch for line l, or nil. The MSHR set
// is bounded by par.MSHRs entries, so the linear scan is a handful of
// pointer chases.
//
//sim:hotpath
func (p *BulkProc) findReq(l mem.Line) *fetchReq {
	for _, r := range p.inflight {
		if r.l == l {
			return r
		}
	}
	return nil
}

// dropReq removes r from the MSHR set if present (it may already have
// been replaced after poisoning). Swap-remove: the only walk over the set
// is the commutative poison marking, so order is free.
//
//sim:hotpath
func (p *BulkProc) dropReq(r *fetchReq) {
	for i, q := range p.inflight {
		if q == r {
			n := len(p.inflight) - 1
			p.inflight[i] = p.inflight[n]
			p.inflight[n] = nil
			p.inflight = p.inflight[:n]
			return
		}
	}
}

// fetchWaiter requests line l from its home directory on behalf of waiter
// w, coalescing with an outstanding request (one MSHR per line). The
// request record, its waiter storage and its arrival continuation are all
// pooled; a steady-state miss allocates nothing.
func (p *BulkProc) fetchWaiter(l mem.Line, w bulkWaiter) {
	if req := p.findReq(l); req != nil {
		if !req.poisoned {
			req.waiters = append(req.waiters, w)
			return
		}
		// The outstanding request is poisoned, its data dead on arrival.
		// Coalescing onto it would be a consistency hole: no new demand
		// read would reach the directory, so this processor would never
		// be re-registered as a sharer and later commits could miss it.
		// Replace it with a fresh request (the poisoned record stays
		// alive until its reply lands, but is no longer the line's MSHR).
		p.dropReq(req)
	}
	req := p.newReq(l)
	req.waiters = append(req.waiters, w)
	p.inflight = append(p.inflight, req)
	p.inflightSig.Add(l)
	p.env.ReadLine(p.id, l, false, req.arriveFn)
}

//sim:pool acquire
func (p *BulkProc) newReq(l mem.Line) *fetchReq {
	var r *fetchReq
	if n := len(p.reqFree); n > 0 {
		r = p.reqFree[n-1]
		p.reqFree[n-1] = nil
		p.reqFree = p.reqFree[:n-1]
		r.poisoned = false
	} else {
		r = &fetchReq{p: p}
		r.arriveFn = r.arrive
	}
	r.l = l
	return r
}

// getCommitReq returns a recycled (or fresh) permission-to-commit record;
// every field is overwritten by sendCommit before use.
//
//sim:hotpath
//sim:pool acquire
func (p *BulkProc) getCommitReq() *CommitReq {
	if n := len(p.commitReqFree); n > 0 {
		r := p.commitReqFree[n-1]
		p.commitReqFree[n-1] = nil
		p.commitReqFree = p.commitReqFree[:n-1]
		return r
	}
	return seedCommitReq()
}

// seedCommitReq builds a fresh record; the free list absorbs it at its
// first release.
func seedCommitReq() *CommitReq { return &CommitReq{} }

// putCommitReq recycles r once Env.Commit has consumed it. References are
// dropped so a parked record cannot pin a dead run's signatures or sets.
//
//sim:hotpath
//sim:pool release
func (p *BulkProc) putCommitReq(r *CommitReq) {
	r.W, r.R = nil, nil
	r.Chunk = nil
	r.FetchR, r.Reply = nil, nil
	r.TrueW = nil
	r.Hold = chunk.Hold{}
	p.commitReqFree = append(p.commitReqFree, r)
}

//sim:pool release
func (p *BulkProc) freeReq(r *fetchReq) {
	for i := range r.waiters {
		r.waiters[i] = bulkWaiter{} // drop chunk references
	}
	r.waiters = r.waiters[:0]
	p.reqFree = append(p.reqFree, r)
}

// arrive runs at the requester when the reply lands: install (or poison-
// discard) the line, then serve the waiters.
func (r *fetchReq) arrive(stateHint int) {
	p, l := r.p, r.l
	p.dropReq(r)
	if r.poisoned {
		// Invalidate-on-arrival: wake the waiters without caching the
		// stale data; value-dependent consumers re-fetch.
		p.retireInflightSig()
		p.runWaiters(r)
		return
	}
	victim, ok := p.l1.Insert(l, cache.LineState(stateHint))
	if !ok {
		// All ways pinned: hold the line in the MSHR virtually and retry
		// shortly; commit of the pinning chunk frees a way. Re-adding the
		// line keeps the in-flight signature a superset of the MSHR set.
		p.inflight = append(p.inflight, r)
		p.inflightSig.Add(l)
		r.st = cache.LineState(stateHint)
		p.env.Eng.AfterCall(10, bulkRetryCB, r)
		return
	}
	p.retireInflightSig()
	p.handleVictim(victim)
	p.runWaiters(r)
}

// bulkRetryCB re-attempts a blocked install through the engine's typed-
// callback path; the pooled request is the payload, so retries allocate
// nothing.
func bulkRetryCB(arg any) { arg.(*fetchReq).retryInstall() }

func (r *fetchReq) retryInstall() {
	p, l := r.p, r.l
	p.dropReq(r)
	if r.poisoned {
		p.retireInflightSig()
		p.runWaiters(r)
		return
	}
	victim, ok := p.l1.Insert(l, r.st)
	if !ok {
		if p.findReq(l) == nil {
			p.inflight = append(p.inflight, r)
			p.inflightSig.Add(l)
		}
		p.env.Eng.AfterCall(10, bulkRetryCB, r)
		return
	}
	p.retireInflightSig()
	p.handleVictim(victim)
	p.runWaiters(r)
}

// retireInflightSig re-tightens the in-flight-lines signature after a
// fetch retires. Signatures cannot remove, so retirement clears it only
// at the cheap sound point — when the MSHR set drains empty. MSHRs bound
// the set at a handful of entries and the machine drains it constantly,
// so stale bits never accumulate past one burst; in between they can only
// cause a harmless fall-through to the precise poison scan.
//
//sim:hotpath
func (p *BulkProc) retireInflightSig() {
	if len(p.inflight) == 0 {
		p.inflightSig.Clear()
	}
}

// runWaiters serves every consumer of the arrived (or poisoned) fill and
// recycles the request. Each case replicates the capture closure it
// replaced; the Gen guard defuses waiters whose chunk died or was
// recycled while the fill was in flight.
func (p *BulkProc) runWaiters(r *fetchReq) {
	for i := range r.waiters {
		w := &r.waiters[i]
		ch := w.ch
		switch w.kind {
		case wLoad:
			p.missComplete(w.idx)
			if ch.Gen == w.gen && ch.State != chunk.Squashed {
				if !w.hadFwd {
					ch.Log[w.logIdx].Value = p.env.Mem.Load(w.a)
				}
				ch.Pending--
				p.tryRequestCommit(ch)
			}
		case wPin:
			if ch.Gen == w.gen && ch.State != chunk.Squashed {
				if ch.WroteLine(r.l) {
					p.l1.Pin(r.l, ch.Slot)
				}
				ch.Pending--
				p.tryRequestCommit(ch)
			}
		case wEnsure:
			if ch.Gen == w.gen && ch.State != chunk.Squashed {
				ch.Pending--
				p.tryRequestCommit(ch)
			}
		}
		p.kick()
	}
	p.freeReq(r)
}

// handleVictim accounts for a displaced line: dirty lines write back;
// displacements of speculatively-read lines are safe (the R signature
// remembers them) but counted for Table 3.
func (p *BulkProc) handleVictim(v cache.Way) {
	if !v.Valid() {
		return
	}
	for _, ch := range p.chunks {
		if ch.State == chunk.Squashed || !ch.Active() {
			continue
		}
		if ch.RSet.Has(v.Line) {
			p.env.St.SpecReadDispl++
			break
		}
	}
	if v.State == cache.Dirty {
		p.env.St.AddTraffic(stats.CatData, network.DataBytes)
		p.env.WritebackLine(p.id, v.Line, true)
	}
}

// ---------------------------------------------------------------------------
// Synchronization interpretation
// ---------------------------------------------------------------------------

// doAcquire attempts one acquire iteration. It returns true if the
// processor should back off and retry — either the line is still on its
// way (a value-dependent operation must read the arrived data, which by
// then reflects any private-buffer snoop at the owner) or the lock is
// held. The interpreter position stays on the acquire.
func (p *BulkProc) doAcquire(lock mem.Addr) bool {
	if !p.ensureLine(lock.LineOf()) {
		return true
	}
	v := p.readValue(lock)
	p.cur.RecordLoad(lock, v, false)
	if v != 0 {
		p.env.St.SpinInstrs++
		return true
	}
	// Test-and-set succeeds: the load and store stay in one chunk, whose
	// atomicity makes the pair an atomic RMW (§3.3).
	p.doStore(lock, 1)
	p.f.pos++
	return false
}

// doBarrier executes one iteration of the centralized sense-reversing
// barrier (lock-protected arrival counter + generation flag, the ANL
// macro structure). Returns whether the processor must keep waiting, plus
// the number of instructions the iteration consumed.
//
// Phase 0 (arrive): test-and-set the barrier lock, bump the counter, and
// — as the last arriver — reset it and publish the new generation; the
// whole block executes within one chunk, whose atomicity makes it a
// critical section. Phase 1 (wait): spin on the generation flag only, so
// arrivals do not disturb waiting chunks' read sets.
func (p *BulkProc) doBarrier(in workload.Instr) (waiting bool, ops int) {
	target := p.f.barrierTarget()
	lock, count, gen := in.Addr, barrierCount(in), barrierGen(in)
	if p.f.barPhase == 0 {
		if !p.ensureLine(lock.LineOf()) || !p.ensureLine(count.LineOf()) {
			return true, 1
		}
		v := p.readValue(lock)
		p.cur.RecordLoad(lock, v, false)
		if v != 0 {
			p.env.St.SpinInstrs++
			return true, 2
		}
		p.doStore(lock, 1)
		c := p.readValue(count)
		p.cur.RecordLoad(count, c, false)
		if c+1 >= uint64(in.N) {
			p.doStore(count, 0)
			p.doStore(gen, target)
		} else {
			p.doStore(count, c+1)
		}
		p.doStore(lock, 0)
		p.f.barPhase = 1
		return false, 8
	}
	if !p.ensureLine(gen.LineOf()) {
		return true, 1
	}
	g := p.readValue(gen)
	p.cur.RecordLoad(gen, g, false)
	if g < target {
		p.env.St.SpinInstrs++
		return true, 2
	}
	p.f.pos++
	p.f.barriersDone++
	p.f.barPhase = 0
	return false, 2
}

// ensureLine reports whether l is present (touching recency); if absent it
// starts the fetch and arranges a dispatch retry at arrival. Sync
// micro-ops are value-dependent, so they only read present lines.
//
//sim:hotpath
func (p *BulkProc) ensureLine(l mem.Line) bool {
	if p.l1.Access(l) != nil {
		p.env.St.L1Hits++
		return true
	}
	p.env.St.L1Misses++
	ch := p.cur
	ch.Pending++
	p.fetchWaiter(l, bulkWaiter{kind: wEnsure, ch: ch, gen: ch.Gen})
	return false
}
