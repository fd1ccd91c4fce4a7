package proc

import (
	"fmt"

	"bulksc/internal/cache"
	"bulksc/internal/directory"
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
	"bulksc/internal/workload"
)

// Model selects the conventional consistency implementation.
type Model int

const (
	// SC is sequential consistency with hardware prefetching for reads
	// and exclusive prefetching for writes [Gharachorloo et al. 91], the
	// paper's SC baseline: memory operations complete one at a time, but
	// upcoming lines are prefetched into the cache so that most complete
	// quickly.
	SC Model = iota
	// RC is release consistency with speculative execution across fences
	// and exclusive prefetching for writes: loads perform at dispatch,
	// stores drain from a store buffer, fences impose no stalls.
	RC
	// SCpp is SC++ [Gniady et al. 99]: RC-like speculative execution with
	// a Speculative History Queue; an external invalidation that hits a
	// speculatively-performed access rolls the processor back.
	SCpp
)

func (m Model) String() string {
	return [...]string{"SC", "RC", "SC++"}[m]
}

// scSerial is the retirement serialization cost per memory operation under
// SC: with read/exclusive prefetching, a prefetched operation still
// occupies the ordering point for about a cycle.
const scSerial sim.Time = 1

// ConvProc is a conventional processor running one of the baseline models.
type ConvProc struct {
	//lint:poolsafe stable identity fixed at construction
	id int
	//lint:poolsafe immutable machine-lifetime wiring fixed at construction
	env   *Env
	par   Params
	model Model
	l1    *cache.L1

	f        fetcher
	dispatch uint64
	storeSeq uint64

	// poSeq numbers memory operations in program order for
	// Observer.Access.
	poSeq uint64

	// inflight holds the outstanding line fetches, at most par.MSHRs (a
	// handful) at a time — a linear scan beats the map it replaced.
	inflight []*convReq
	// reqFree recycles fetch-request records; each keeps its bound arrival
	// callback, so a steady-state miss allocates nothing. Safe across runs:
	// freeReq empties the waiters and newReq overwrites the line at reuse.
	//lint:poolsafe recycled records are fully reinitialized at reuse
	reqFree []*convReq
	// misses is a head-indexed FIFO: completed entries advance missHead
	// instead of reslicing, and the storage is reset in place once drained,
	// so the backing array is reused for the whole run.
	misses   []missEntry
	missHead int

	// Store buffer (RC/SC++): head-indexed FIFO of pending stores; values
	// forward to younger loads.
	storeQ    []convStore
	sqHead    int
	draining  bool
	storeFwd  map[mem.Addr]uint64
	fwdCounts map[mem.Addr]int

	// SC++ speculative window: line → last access index + 1, keyed by
	// the line number; 0 marks a line the window no longer holds. Nothing
	// iterates it.
	specLines lineset.Map

	// cov is the prefetch-coverage memo (see prefetchAhead).
	cov coverMemo
	// memOps[i] counts the memory ops in the stream before position i
	// (len(ins)+1 entries), so a scan counts the ops the memo vouches for
	// by one subtraction. Rebuilt in place at Reset.
	memOps []int32

	scheduled bool
	finished  bool
	doneAt    sim.Time
	// serialBusy guards the asynchronous serialized operations (SC memory
	// chain, barrier blocks): while one is in flight, stray kicks from
	// store drains or miss completions must not re-dispatch the same
	// instruction.
	serialBusy bool

	// Bound fill-waiter continuations, captured once at construction.
	// Method values (p.performSerial, …) allocate a closure at every use;
	// these fields make the hot miss paths allocation-free. Engine events
	// use the package-level conv*CB callbacks with p as payload.
	//lint:poolsafe bound method values captured once at construction
	performSerialFn, drainPerformFn, kickFn func()
}

// coverMemo remembers which upcoming memory ops prefetchAhead found
// covered, so the next scan need not probe them again. An op is covered
// when its line is resident in a state sufficient for it, or a fetch for
// its line is in flight. Only three events can take coverage away, and
// each bumps gen: a fill completion (its MSHR drops, and its insert may
// evict), an invalidation of a resident line, and SnoopDirty's Dirty →
// Shared downgrade. New fetches, markDirty upgrades and LRU touches only
// add coverage. Reset clears the memo with the rest of the processor.
type coverMemo struct {
	gen uint64
	// at is the generation at which every memory op at a stream position
	// in [from, to) was covered; the memo holds while at == gen.
	at       uint64
	from, to int
}

type convStore struct {
	addr mem.Addr
	val  uint64
	po   uint64 // program-order index, assigned at dispatch
}

// convReq is one outstanding line fetch of a conventional processor. It is
// pooled: the record and its bound arrival callback are reused across
// misses, and the waiter slice keeps its capacity.
type convReq struct {
	p        *ConvProc
	l        mem.Line
	waiters  []convWaiter
	arriveFn func(stateHint int)
}

// convWaiter is one party waiting on a line fill: either a long-lived
// continuation fn, or (fn == nil) a speculative-load miss identified by its
// dispatch index, completed inline without a per-miss closure.
type convWaiter struct {
	fn  func()
	idx uint64
}

// NewConvProc builds a conventional processor over stream ins.
func NewConvProc(id int, env *Env, par Params, model Model, ins []workload.Instr) *ConvProc {
	p := &ConvProc{
		id:        id,
		env:       env,
		par:       par,
		model:     model,
		l1:        cache.NewL1(256, 4),
		f:         newFetcher(ins),
		inflight:  make([]*convReq, 0, par.MSHRs),
		storeFwd:  make(map[mem.Addr]uint64),
		fwdCounts: make(map[mem.Addr]int),
		memOps:    countMemOps(nil, ins),
	}
	p.performSerialFn = p.performSerial
	p.drainPerformFn = p.drainPerform
	p.kickFn = p.kick
	return p
}

// Reset returns the processor to its just-constructed state over a new
// instruction stream (possibly under a different model), retaining the
// construction-time storage: the L1 tag arrays (scrubbed in place), the
// map buckets, the FIFO backing arrays and the fetch-request pool.
func (p *ConvProc) Reset(ins []workload.Instr, par Params, model Model) {
	p.par = par
	p.model = model
	p.l1.Reset()
	p.f = newFetcher(ins)
	p.dispatch = 0
	p.storeSeq = 0
	p.poSeq = 0
	clear(p.inflight)
	p.inflight = p.inflight[:0]
	p.misses = p.misses[:0]
	p.missHead = 0
	p.storeQ = p.storeQ[:0]
	p.sqHead = 0
	p.draining = false
	clear(p.storeFwd)
	clear(p.fwdCounts)
	p.specLines.Reset()
	p.cov = coverMemo{}
	p.memOps = countMemOps(p.memOps[:0], ins)
	p.scheduled = false
	p.finished = false
	p.doneAt = 0
	p.serialBusy = false
}

// Start schedules the first event.
func (p *ConvProc) Start() { p.kick() }

// DebugState summarizes the processor's interpreter position, for test
// diagnostics on apparent deadlocks.
func (p *ConvProc) DebugState() string {
	return fmt.Sprintf("conv{finished=%v pos=%d/%d phase=%d barriers=%d storeQ=%d inflight=%d scheduled=%v}",
		p.finished, p.f.pos, len(p.f.ins), p.f.barPhase, p.f.barriersDone, p.storeQLen(), len(p.inflight), p.scheduled)
}

// Finished reports stream completion.
func (p *ConvProc) Finished() bool { return p.finished }

// DoneAt returns the completion cycle.
func (p *ConvProc) DoneAt() sim.Time { return p.doneAt }

func (p *ConvProc) kick() {
	if p.scheduled || p.finished {
		return
	}
	p.scheduled = true
	p.env.Eng.AfterCall(0, convStepCB, p)
}

func (p *ConvProc) kickAt(d sim.Time) {
	if p.scheduled || p.finished {
		return
	}
	if d < 1 {
		d = 1
	}
	p.scheduled = true
	p.env.Eng.AfterCall(d, convStepCB, p)
}

//sim:hotpath
func convStepCB(arg any) { arg.(*ConvProc).step() }

//sim:hotpath
func convPerformSerialCB(arg any) { arg.(*ConvProc).performSerial() }

//sim:hotpath
func convDrainPerformCB(arg any) { arg.(*ConvProc).drainPerform() }

//sim:hotpath
func convDrainNextCB(arg any) { arg.(*ConvProc).drainNext() }

func (p *ConvProc) finish() {
	p.finished = true
	p.doneAt = p.env.Eng.Now()
	p.env.Unfinished--
}

// step is the dispatch event. SC serializes memory operations; RC/SC++
// overlap them.
func (p *ConvProc) step() {
	p.scheduled = false
	if p.finished || p.serialBusy {
		return
	}
	if p.model == SC {
		p.scStep()
		return
	}
	p.rcStep()
}

// resumeSerial ends an asynchronous serialized operation (begun by setting
// serialBusy) and schedules the next dispatch event after d cycles.
func (p *ConvProc) resumeSerial(d sim.Time) {
	p.serialBusy = false
	p.kickAt(d)
}

// ---------------------------------------------------------------------------
// Shared fetch machinery
// ---------------------------------------------------------------------------

func (p *ConvProc) newReq(l mem.Line) *convReq {
	var r *convReq
	if n := len(p.reqFree); n > 0 {
		r = p.reqFree[n-1]
		p.reqFree[n-1] = nil
		p.reqFree = p.reqFree[:n-1]
	} else {
		r = &convReq{p: p}
		r.arriveFn = r.arrive
	}
	r.l = l
	return r
}

func (p *ConvProc) freeReq(r *convReq) {
	for i := range r.waiters {
		r.waiters[i] = convWaiter{}
	}
	r.waiters = r.waiters[:0]
	p.reqFree = append(p.reqFree, r)
}

// arrive is the fill-completion continuation for one pooled request; it is
// bound once per record and handed to Env.ReadLine on every reuse.
func (r *convReq) arrive(stateHint int) {
	p, l := r.p, r.l
	p.dropReq(r)
	victim, ok := p.l1.Insert(l, cache.LineState(stateHint))
	if !ok {
		panic("conv proc: insert failed (no pinning in conventional mode)")
	}
	p.cov.gen++ // the MSHR is gone, and the line may have evicted another
	if victim.Valid() && victim.State == cache.Dirty {
		p.env.St.AddTraffic(stats.CatData, network.DataBytes)
		p.env.WritebackLine(p.id, victim.Line, true)
	}
	for i := range r.waiters {
		w := r.waiters[i]
		if w.fn != nil {
			w.fn()
		} else {
			p.missComplete(w.idx)
			p.kick()
		}
	}
	p.freeReq(r)
}

// findReq returns the outstanding fetch for line l, or nil (linear scan;
// the MSHR set is bounded by par.MSHRs entries).
//
//sim:hotpath
func (p *ConvProc) findReq(l mem.Line) *convReq {
	for _, r := range p.inflight {
		if r.l == l {
			return r
		}
	}
	return nil
}

// dropReq removes r from the MSHR set (swap-remove; nothing walks the
// set, so order is free).
//
//sim:hotpath
func (p *ConvProc) dropReq(r *convReq) {
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

func (p *ConvProc) fetch(l mem.Line, excl bool, done func()) {
	if req := p.findReq(l); req != nil {
		if done != nil {
			req.waiters = append(req.waiters, convWaiter{fn: done})
		}
		return
	}
	req := p.newReq(l)
	if done != nil {
		req.waiters = append(req.waiters, convWaiter{fn: done})
	}
	p.inflight = append(p.inflight, req)
	p.env.ReadLine(p.id, l, excl, req.arriveFn)
}

// fetchLoadMiss fetches l on behalf of the speculative load at dispatch
// index idx; completion marks the miss entry done and kicks dispatch,
// without a per-miss closure.
func (p *ConvProc) fetchLoadMiss(l mem.Line, idx uint64) {
	if req := p.findReq(l); req != nil {
		req.waiters = append(req.waiters, convWaiter{idx: idx})
		return
	}
	req := p.newReq(l)
	req.waiters = append(req.waiters, convWaiter{idx: idx})
	p.inflight = append(p.inflight, req)
	p.env.ReadLine(p.id, l, false, req.arriveFn)
}

// missComplete marks the oldest outstanding miss with dispatch index idx
// done.
func (p *ConvProc) missComplete(idx uint64) {
	for i := p.missHead; i < len(p.misses); i++ {
		if p.misses[i].idx == idx && !p.misses[i].done {
			p.misses[i].done = true
			return
		}
	}
}

// countMemOps fills dst (reusing its storage) with the prefix counts of
// memory ops in ins — the ops prefetchAhead counts — and returns it:
// dst[i] is the number of memory ops in ins[:i].
func countMemOps(dst []int32, ins []workload.Instr) []int32 {
	var n int32
	dst = append(dst, 0)
	for _, in := range ins {
		switch in.Kind {
		case workload.OpLoad, workload.OpStore, workload.OpAcquire, workload.OpRelease:
			n++
		}
		dst = append(dst, n)
	}
	return dst
}

// prefetchAhead scans the upcoming stream and issues read/exclusive
// prefetches for the next few memory operations — the SC baseline's
// optimization (reads) and the exclusive-prefetch optimization shared by
// SC and RC. Ops the coverage memo vouches for are counted without being
// visited, by one subtraction of memOps; every other op is probed, so the
// prefetches issued, and their order, are those of a scan that probes
// everything. The memo never reaches past the stream's OpEnd, so the
// jump skips no stopping point.
//
//sim:hotpath
func (p *ConvProc) prefetchAhead(k int) {
	pos := p.f.pos
	start, gen := pos, p.cov.gen
	n := 0
	if p.cov.at == gen && p.cov.from <= pos && pos < p.cov.to {
		n = int(p.memOps[p.cov.to] - p.memOps[pos])
		if n >= k {
			// The k-th op lies inside the memo: the scan would end there
			// having probed nothing, leaving the memo [start, cov.to).
			p.cov.from = start
			return
		}
		pos = p.cov.to
	}
	for ; n < k && pos < len(p.f.ins); pos++ {
		in := p.f.ins[pos]
		var l mem.Line
		var excl bool
		switch in.Kind {
		case workload.OpLoad:
			l, excl = in.Addr.LineOf(), false
		case workload.OpStore:
			l, excl = in.Addr.LineOf(), true
		case workload.OpAcquire, workload.OpRelease:
			l, excl = in.Addr.LineOf(), true
		case workload.OpEnd:
			p.rememberCovered(start, pos, gen)
			return
		default:
			continue
		}
		n++
		if w := p.l1.Probe(l); w != nil {
			if !excl || w.State == cache.Dirty || w.State == cache.Excl {
				continue
			}
		}
		if p.findReq(l) != nil {
			continue
		}
		if len(p.inflight) >= p.par.MSHRs {
			p.rememberCovered(start, pos, gen)
			return
		}
		p.env.St.Prefetches++
		p.fetch(l, excl, nil)
	}
	p.rememberCovered(start, pos, gen)
}

// rememberCovered records that every memory op in [from, to) was covered
// at generation gen, the generation the scan started at, keeping the
// memo's longer reach when from lies inside it. If an uncovering event
// fired during the scan's own requests, gen is already stale and so is
// the memo.
//
//sim:hotpath
func (p *ConvProc) rememberCovered(from, to int, gen uint64) {
	if p.cov.at == gen && p.cov.from <= from && from < p.cov.to && to < p.cov.to {
		to = p.cov.to
	}
	p.cov.at, p.cov.from, p.cov.to = gen, from, to
}

// owner reports whether the cache can complete a store locally.
func (p *ConvProc) owner(l mem.Line) bool {
	w := p.l1.Probe(l)
	return w != nil && (w.State == cache.Dirty || w.State == cache.Excl)
}

func (p *ConvProc) token() uint64 {
	p.storeSeq++
	return uint64(p.id+1)<<40 | p.storeSeq
}

// noteAccess records a line in the SC++ speculative window.
//
//sim:hotpath
func (p *ConvProc) noteAccess(l mem.Line) {
	if p.model == SCpp {
		p.specLines.Put(mem.Addr(l), p.dispatch+1)
	}
}

// readValue reads addr with store-buffer forwarding, reporting whether the
// value was forwarded from the processor's own buffer.
func (p *ConvProc) readValue(a mem.Addr) (uint64, bool) {
	if v, ok := p.storeFwd[a.Align()]; ok {
		return v, true
	}
	return p.env.Mem.Load(a), false
}

// nextPO returns the next program-order index for access recording.
func (p *ConvProc) nextPO() uint64 {
	p.poSeq++
	return p.poSeq
}

// recordAccess reports one architectural access to the run's observers.
func (p *ConvProc) recordAccess(po uint64, store bool, a mem.Addr, v uint64, fwd bool) {
	for _, o := range p.env.Observers {
		o.Access(p.id, po, store, a, v, fwd)
	}
}

// ---------------------------------------------------------------------------
// SC: serialized interpretation with prefetching
// ---------------------------------------------------------------------------

func (p *ConvProc) scStep() {
	in := p.f.current()
	if in.Kind == workload.OpEnd {
		p.finish()
		return
	}
	switch in.Kind {
	case workload.OpCompute:
		n := p.f.computeLeft
		if n == 0 {
			n = in.N
		}
		p.f.computeLeft = 0
		p.f.pos++
		p.dispatch += uint64(n)
		p.env.St.CommittedInstrs += uint64(n)
		p.prefetchAhead(p.par.MSHRs)
		p.kickAt(sim.Time(n) / sim.Time(p.par.IssueWidth))
	case workload.OpLoad:
		p.serialBusy = true
		p.scAccess(in.Addr, false)
	case workload.OpStore, workload.OpRelease, workload.OpAcquire:
		p.serialBusy = true
		p.scAccess(in.Addr, true)
	case workload.OpBarrier:
		p.serialBusy = true
		p.convBarrier()
	case workload.OpIO:
		// Uncached operation: fully serialized at the device latency.
		p.f.pos++
		p.retire(1)
		p.kickAt(sim.Time(in.N))
	default:
		panic(fmt.Sprintf("conv proc %d: op %v", p.id, in.Kind))
	}
}

// performSerial completes the serialized memory operation at the current
// interpreter position. It is the single bound continuation behind every
// SC access and barrier micro-step: serialBusy guarantees the interpreter
// has not advanced since dispatch, so the instruction (and barrier phase)
// is re-read here instead of being captured in a per-operation closure.
func (p *ConvProc) performSerial() {
	in := p.f.current()
	switch in.Kind {
	case workload.OpLoad:
		v := p.env.Mem.Load(in.Addr) // architectural read at this instant
		p.recordAccess(p.nextPO(), false, in.Addr, v, false)
		p.f.pos++
		p.retire(1)
		p.resumeSerial(scSerial)
	case workload.OpStore:
		v := p.token()
		p.env.Mem.Store(in.Addr, v)
		p.recordAccess(p.nextPO(), true, in.Addr, v, false)
		p.markDirty(in.Addr.LineOf())
		p.f.pos++
		p.retire(1)
		p.resumeSerial(scSerial)
	case workload.OpRelease:
		p.env.Mem.Store(in.Addr, 0)
		p.recordAccess(p.nextPO(), true, in.Addr, 0, false)
		p.markDirty(in.Addr.LineOf())
		p.f.pos++
		p.retire(1)
		p.resumeSerial(scSerial)
	case workload.OpAcquire:
		v := p.env.Mem.Load(in.Addr)
		p.recordAccess(p.nextPO(), false, in.Addr, v, false)
		if v == 0 {
			p.env.Mem.Store(in.Addr, 1)
			p.recordAccess(p.nextPO(), true, in.Addr, 1, false)
			p.markDirty(in.Addr.LineOf())
			p.f.pos++
			p.retire(2)
			p.resumeSerial(scSerial)
			return
		}
		p.retire(2)
		p.env.St.SpinInstrs++
		p.resumeSerial(p.par.SpinBackoff)
	case workload.OpBarrier:
		if p.f.barPhase == 0 {
			p.barArrive(in)
		} else {
			p.barWait(in)
		}
	default:
		panic(fmt.Sprintf("conv proc %d: perform on op %v", p.id, in.Kind))
	}
}

// scAccess brings the line in (counting hit/miss) and runs performSerial
// when the operation may complete.
func (p *ConvProc) scAccess(a mem.Addr, excl bool) {
	l := a.LineOf()
	p.noteAccess(l)
	w := p.l1.Access(l)
	if w != nil && (!excl || w.State == cache.Dirty || w.State == cache.Excl) {
		p.env.St.L1Hits++
		p.prefetchAhead(p.par.MSHRs)
		p.env.Eng.AfterCall(p.par.L1Hit, convPerformSerialCB, p)
		return
	}
	p.env.St.L1Misses++
	p.prefetchAhead(p.par.MSHRs)
	p.fetch(l, excl, p.performSerialFn)
}

func (p *ConvProc) markDirty(l mem.Line) {
	if w := p.l1.Probe(l); w != nil {
		w.State = cache.Dirty
	}
}

func (p *ConvProc) retire(n int) {
	p.dispatch += uint64(n)
	p.env.St.CommittedInstrs += uint64(n)
}

// convBarrier interprets the centralized barrier for the conventional
// models. The lock-protected arrival block executes atomically at its
// perform event (the lock is therefore never observed held); waiters spin
// on the generation flag. Callers set serialBusy first; the perform
// micro-steps (barArrive, barWait) clear it through resumeSerial.
func (p *ConvProc) convBarrier() {
	in := p.f.current()
	if p.f.barPhase == 0 {
		p.scAccess(barrierCount(in), true)
		return
	}
	p.scAccess(barrierGen(in), false)
}

// barArrive is the barrier arrival block, run at the perform event of the
// counter-line access while barPhase is still 0.
func (p *ConvProc) barArrive(in workload.Instr) {
	target := p.f.barrierTarget()
	count, gen := barrierCount(in), barrierGen(in)
	c := p.env.Mem.Load(count)
	p.recordAccess(p.nextPO(), false, count, c, false)
	if c+1 >= uint64(in.N) {
		p.env.Mem.Store(count, 0)
		p.recordAccess(p.nextPO(), true, count, 0, false)
		p.env.Mem.Store(gen, target)
		p.recordAccess(p.nextPO(), true, gen, target, false)
		p.markDirty(gen.LineOf())
	} else {
		p.env.Mem.Store(count, c+1)
		p.recordAccess(p.nextPO(), true, count, c+1, false)
	}
	p.markDirty(count.LineOf())
	p.noteAccess(count.LineOf())
	p.retire(6)
	p.f.barPhase = 1
	p.resumeSerial(scSerial)
}

// barWait is one generation-flag spin iteration, run at the perform event
// of the flag-line access while barPhase is 1.
func (p *ConvProc) barWait(in workload.Instr) {
	target := p.f.barrierTarget()
	gen := barrierGen(in)
	g := p.env.Mem.Load(gen)
	p.recordAccess(p.nextPO(), false, gen, g, false)
	p.noteAccess(gen.LineOf())
	p.retire(2)
	if g < target {
		p.env.St.SpinInstrs++
		p.resumeSerial(p.par.SpinBackoff)
		return
	}
	p.f.pos++
	p.f.barriersDone++
	p.f.barPhase = 0
	p.resumeSerial(scSerial)
}

// ---------------------------------------------------------------------------
// RC / SC++: overlapped dispatch
// ---------------------------------------------------------------------------

func (p *ConvProc) rcStep() {
	consumed := 0
	for consumed < batchInstrs {
		if len(p.inflight) >= p.par.MSHRs {
			return // fetch completion kicks
		}
		if p.robFullConv() {
			return
		}
		if p.storeQLen() >= p.par.LSQ {
			return // store drain kicks
		}
		// One indexed load serves both the end-of-stream test and the
		// dispatch switch (done() is current().Kind == OpEnd).
		in := p.f.current()
		if in.Kind == workload.OpEnd {
			if p.storeQLen() > 0 {
				return // drain completes first
			}
			p.finish()
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
			p.retire(int(take))
			consumed += int(take)
		case workload.OpLoad:
			p.rcLoad(in.Addr)
			p.f.pos++
			consumed++
		case workload.OpStore:
			p.rcStore(in.Addr, p.token())
			p.f.pos++
			consumed++
		case workload.OpRelease:
			// Release: a store; RC speculates across the fence.
			p.rcStore(in.Addr, 0)
			p.f.pos++
			consumed++
		case workload.OpAcquire:
			// Atomic RMW: wait for the store buffer to drain, then
			// perform atomically through the serial path.
			if p.storeQLen() > 0 {
				return // drain completion kicks
			}
			done := p.rcAcquire(in.Addr)
			consumed += 2
			if !done {
				p.yield(p.par.SpinBackoff)
				return
			}
		case workload.OpBarrier:
			// Barriers stall dispatch; the async barrier machinery
			// re-kicks the processor.
			if p.storeQLen() > 0 {
				return // drain first; completion kicks
			}
			p.serialBusy = true
			p.convBarrier()
			return
		case workload.OpIO:
			// Uncached: drain the store buffer and outstanding loads,
			// then pay the device latency.
			if p.storeQLen() > 0 || p.missLen() > 0 {
				p.pruneMisses()
				if p.storeQLen() > 0 || p.missLen() > 0 {
					return // completions kick
				}
			}
			p.f.pos++
			p.retire(1)
			p.yield(sim.Time(in.N))
			return
		default:
			panic(fmt.Sprintf("conv proc %d: op %v", p.id, in.Kind))
		}
	}
	p.yield(sim.Time(consumed) / sim.Time(p.par.IssueWidth))
}

func (p *ConvProc) yield(d sim.Time) { p.kickAt(d) }

// storeQLen and missLen are the logical FIFO lengths under head indexing.
func (p *ConvProc) storeQLen() int { return len(p.storeQ) - p.sqHead }
func (p *ConvProc) missLen() int   { return len(p.misses) - p.missHead }

func (p *ConvProc) robFullConv() bool {
	p.pruneMisses()
	return p.missLen() > 0 && p.dispatch-p.misses[p.missHead].idx >= uint64(p.par.ROB)
}

// pruneMisses advances the head past completed entries; once the FIFO
// drains, the backing array is reset in place for reuse.
func (p *ConvProc) pruneMisses() {
	for p.missHead < len(p.misses) && p.misses[p.missHead].done {
		p.missHead++
	}
	if p.missHead == len(p.misses) {
		p.misses = p.misses[:0]
		p.missHead = 0
	}
}

// rcLoad performs a load at dispatch (speculative loads; SC++'s SHiQ and
// RC's weak ordering both allow this) and tracks the miss for ROB
// occupancy.
func (p *ConvProc) rcLoad(a mem.Addr) {
	p.retire(1)
	l := a.LineOf()
	p.noteAccess(l)
	v, fwd := p.readValue(a) // architectural read at this instant
	p.recordAccess(p.nextPO(), false, a, v, fwd)
	if p.l1.Access(l) != nil {
		p.env.St.L1Hits++
		return
	}
	p.env.St.L1Misses++
	idx := p.dispatch
	p.misses = append(p.misses, missEntry{idx: idx})
	p.fetchLoadMiss(l, idx)
}

// rcStore buffers a store; the buffer drains in order, acquiring exclusive
// ownership per line (with exclusive prefetch, usually already held).
func (p *ConvProc) rcStore(a mem.Addr, val uint64) {
	p.retire(1)
	p.noteAccess(a.LineOf())
	p.storeQ = append(p.storeQ, convStore{addr: a, val: val, po: p.nextPO()})
	p.storeFwd[a.Align()] = val
	p.fwdCounts[a.Align()]++
	p.prefetchAhead(2)
	p.drainStores()
}

func (p *ConvProc) drainStores() {
	if p.draining || p.storeQLen() == 0 {
		return
	}
	p.draining = true
	l := p.storeQ[p.sqHead].addr.LineOf()
	if p.owner(l) {
		p.env.St.L1Hits++
		p.env.Eng.AfterCall(p.par.L1Hit, convDrainPerformCB, p)
		return
	}
	p.env.St.L1Misses++
	p.fetch(l, true, p.drainPerformFn)
}

// drainPerform commits the store at the buffer head. The head is stable
// between drainStores and this event: draining guards re-entry and only
// this method pops, so the entry is re-read here instead of captured.
func (p *ConvProc) drainPerform() {
	s := p.storeQ[p.sqHead]
	p.env.Mem.Store(s.addr, s.val)
	// Reported with the program-order index assigned at dispatch: under
	// RC the drain performs after younger loads, which the witness checker
	// sees as the store→load relaxation.
	p.recordAccess(s.po, true, s.addr, s.val, false)
	p.markDirty(s.addr.LineOf())
	p.sqHead++
	if p.sqHead == len(p.storeQ) {
		p.storeQ = p.storeQ[:0]
		p.sqHead = 0
	}
	a := s.addr.Align()
	p.fwdCounts[a]--
	if p.fwdCounts[a] == 0 {
		delete(p.storeFwd, a)
		delete(p.fwdCounts, a)
	}
	p.draining = false
	p.env.Eng.AfterCall(1, convDrainNextCB, p)
}

func (p *ConvProc) drainNext() {
	p.drainStores()
	p.kick()
}

// rcAcquire performs an atomic test-and-set with the store buffer empty.
// Returns success.
func (p *ConvProc) rcAcquire(lock mem.Addr) bool {
	p.retire(2)
	p.noteAccess(lock.LineOf())
	v := p.env.Mem.Load(lock)
	p.recordAccess(p.nextPO(), false, lock, v, false)
	if v != 0 {
		p.env.St.SpinInstrs++
		return false
	}
	p.env.Mem.Store(lock, 1)
	p.recordAccess(p.nextPO(), true, lock, 1, false)
	p.markDirty(lock.LineOf())
	if !p.owner(lock.LineOf()) {
		// Pay the ownership latency by pausing dispatch.
		p.env.St.L1Misses++
		p.fetch(lock.LineOf(), true, p.kickFn)
	}
	p.f.pos++
	return true
}

// ---------------------------------------------------------------------------
// directory.CachePort
// ---------------------------------------------------------------------------

// ApplyInvalidate removes the line; under SC++ an invalidation hitting the
// speculative window forces a rollback (timing and statistics; the
// re-execution reads the same sequentially-consistent values).
func (p *ConvProc) ApplyInvalidate(l mem.Line) {
	if p.l1.Invalidate(l) != cache.Invalid {
		p.cov.gen++ // the line no longer covers its ops
	}
	if p.model != SCpp {
		return
	}
	if v, _ := p.specLines.Get(mem.Addr(l)); v != 0 && p.dispatch-(v-1) < uint64(p.par.SHiQ) {
		idx := v - 1
		p.env.St.SHiQViolations++
		wasted := p.dispatch - idx
		if wasted > uint64(p.par.SHiQ) {
			wasted = uint64(p.par.SHiQ)
		}
		p.env.St.SquashedInstrs += wasted
		p.specLines.Put(mem.Addr(l), 0)
		// Rollback penalty: refill plus re-execution time.
		p.kickAt(p.par.SquashPenalty + sim.Time(wasted)/sim.Time(p.par.IssueWidth))
	}
}

// ApplyCommit should never reach a conventional processor.
func (p *ConvProc) ApplyCommit(c *directory.Commit) {
	panic("conv proc: received a BulkSC commit")
}

// SnoopDirty supplies a dirty line and downgrades it.
func (p *ConvProc) SnoopDirty(l mem.Line) (supplied, holds bool) {
	w := p.l1.Probe(l)
	if w == nil {
		return false, false
	}
	if w.State == cache.Dirty {
		w.State = cache.Shared
		p.cov.gen++ // the line no longer covers exclusive ops
		return true, true
	}
	return false, true
}

// SnoopInvalidate supplies and invalidates.
func (p *ConvProc) SnoopInvalidate(l mem.Line) bool {
	had, _ := p.SnoopDirty(l)
	p.ApplyInvalidate(l)
	return had
}
