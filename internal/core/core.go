// Package core assembles complete simulated machines — processors, L1s,
// BDMs, shared L2, directory modules, arbiters and network — and runs a
// workload on them. What a run exports beyond its counters comes from
// the observers on the processors' one event list (proc.Observer): the
// replay checker's commit log, the online SC witness and the NDJSON
// history writer.
//
// This is the layer the public bulksc package and all experiment harnesses
// sit on.
package core

import (
	"fmt"
	"io"
	"slices"
	"time"

	"bulksc/internal/arbiter"
	"bulksc/internal/cache"
	"bulksc/internal/chunk"
	"bulksc/internal/directory"
	"bulksc/internal/fault"
	"bulksc/internal/history"
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/proc"
	"bulksc/internal/sccheck"
	"bulksc/internal/sig"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
	"bulksc/internal/workload"
)

// ModelKind selects the consistency implementation of the machine.
type ModelKind int

const (
	// ModelSC is the SC baseline (read + exclusive prefetching).
	ModelSC ModelKind = iota
	// ModelRC is the RC baseline (speculation across fences).
	ModelRC
	// ModelSCpp is the SC++ baseline (SHiQ).
	ModelSCpp
	// ModelBulk is BulkSC.
	ModelBulk
)

func (m ModelKind) String() string {
	return [...]string{"SC", "RC", "SC++", "BulkSC"}[m]
}

// MaxProcs is the largest machine the simulator supports. The sparse
// sharer-set directory and the sharded arbiter tier scale to it; the bound
// exists because the address layout reserves per-thread stack windows and
// the fault plans target procs by 64-bit mask.
const MaxProcs = 1024

// Config describes one simulated machine + workload.
type Config struct {
	Model ModelKind
	// App names a registered workload generator (see workload.All).
	App string
	// Procs is the core count (Table 2: 8). RunProgram requires it to
	// match the program's thread count; 0 means "infer from the program".
	Procs int
	// Work is the approximate dynamic instruction count per thread.
	Work int
	// Seed drives all randomness (workload generation and timing jitter).
	Seed int64

	// BulkSC options (ignored by the baselines).
	ChunkSize int      // dynamic instructions per chunk (Table 2: 1000)
	MaxChunks int      // chunks in flight per processor (Table 2: 2)
	SigKind   sig.Kind // bloom (real) or exact (BSC_exact)
	// SigGeometry overrides the production 2×1024-bit Bloom geometry for
	// the §6 signature design-space ablation. Ignored for exact
	// signatures; nil selects the production encoding.
	SigGeometry *sig.Geometry
	RSigOpt     bool // §4.2.2 commit bandwidth optimization
	Dypvt       bool // §5.2 dynamically-private data
	Stpvt       bool // §5.1 statically-private data (stack pages)

	// NumArbiters distributes the arbiter and directory into that many
	// address-interleaved modules (§4.2.3); 1 = the paper's base system.
	NumArbiters int
	// GArbShards splits the G-arbiter coordinator into that many
	// independent shards, each handling the multi-range commits whose
	// first address range lands on it, with a per-shard in-flight cap and
	// FIFO overflow queue; ≤1 = a single coordinator (the paper's base
	// system). Only meaningful when NumArbiters > 1.
	GArbShards int
	// DirCacheEntries limits each directory module to a directory cache
	// of that many entries (§4.3.3); 0 = full-map.
	DirCacheEntries int

	// CheckSC puts the replay checker's commit log on the observer list
	// (BulkSC only): every committed chunk is copied at its commit
	// instant, replayed at end of run, and exported in Result.Commits.
	// Costs memory proportional to the access count.
	CheckSC bool
	// Witness runs the online SC-witness checker (internal/sccheck) over
	// the execution: chunk commits under BulkSC, architectural accesses
	// under the conventional models. Unlike CheckSC it keeps only
	// O(footprint) state, so it can gate long runs. Findings land in
	// Result.WitnessViolations. Note that RC (and SC++, which shares RC's
	// dispatch path) genuinely relaxes store→load order; witness findings
	// for those models describe the relaxation rather than a bug.
	Witness bool
	// TraceWriter, when non-nil, streams the execution's memory-
	// consistency history to it as NDJSON (internal/history): one "chunk"
	// record per committed chunk under BulkSC, one "access" record per
	// architectural access under the conventional models, behind a
	// descriptive header. The writer is an observer: it sees the same
	// commit/perform instants the witness checker audits and adds no
	// simulation events, so tracing never perturbs the execution (golden
	// hashes are unaffected). Write errors are surfaced once, at end of
	// run.
	TraceWriter io.Writer
	// TraceEvents puts the TraceWriter export in event mode (BulkSC
	// only): each chunk record carries its commit cycle ("at"), and every
	// squash and pre-arbitration grant becomes a "squash" or "prearb"
	// record, the stream `bulksim -timeline` renders.
	TraceEvents bool
	// MaxCycles aborts apparent livelocks; 0 = a generous default.
	MaxCycles uint64
	// Faults optionally injects deterministic faults (internal/fault):
	// arbitration denial storms and grant delays, network delay jitter,
	// spurious bulk-disambiguation squashes and W-signature aliasing
	// amplification. nil runs fault-free and is bit-identical to a build
	// without the hooks.
	Faults *fault.Plan
	// Watchdog enables the liveness watchdog: a read-only poller that
	// fails the run with a diagnostic when global commit progress stalls
	// or an individual processor starves in a squash/denial loop. The
	// polls never mutate simulation state, so enabling it does not
	// change the simulated execution (golden hashes are unaffected).
	Watchdog bool
	// WatchdogWindow is the no-progress window in cycles before the
	// watchdog declares livelock; 0 = a generous default (400k cycles).
	WatchdogWindow uint64
	// WarmupFrac excludes the first fraction of the committed
	// instructions from the characterization statistics (caches and
	// private working sets must reach steady state before Table 3/4
	// metrics mean anything). Cycles and speedups always cover the full
	// run. 0 disables warmup exclusion.
	WarmupFrac float64
}

// DefaultArbitersFor returns the arbiter/directory module count the
// scaling experiments pair with a machine of procs processors: one
// address-interleaved module per 8 processors, clamped to [1, 64]. The
// paper's 8-proc base system gets its single arbiter; a 256-proc machine
// gets 32.
func DefaultArbitersFor(procs int) int {
	n := procs / 8
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	return n
}

// DefaultGArbShardsFor returns the G-arbiter shard count paired with an
// arbiter tier of arbs modules: one coordinator shard per 4 modules, at
// least one. Multi-range commits fan out from the shard owning their
// first address range instead of a single global coordinator.
func DefaultGArbShardsFor(arbs int) int {
	n := arbs / 4
	if n < 1 {
		n = 1
	}
	return n
}

// DefaultConfig returns the paper's BSC_dypvt system on 8 processors.
func DefaultConfig(app string) Config {
	return Config{
		Model:       ModelBulk,
		App:         app,
		Procs:       8,
		Work:        60_000,
		Seed:        1,
		ChunkSize:   1000,
		MaxChunks:   2,
		SigKind:     sig.KindBloom,
		RSigOpt:     true,
		Dypvt:       true,
		NumArbiters: 1,
		CheckSC:     true,
		Witness:     true,
		Watchdog:    true,
		WarmupFrac:  0.3,
	}
}

// Result is the outcome of one run.
type Result struct {
	Config  Config
	Cycles  uint64
	Stats   *stats.Stats
	PerProc []uint64 // per-processor completion cycle
	// SCViolations lists replay-checker findings (empty = SC held).
	SCViolations []string
	// ChunksChecked is how many committed chunks the checker replayed.
	ChunksChecked int
	// Commits holds one record per committed chunk, in commit order, when
	// Config.CheckSC was set; tests and debugging tools inspect it. The
	// Result owns the records and the log blocks their Logs point into.
	Commits []CommitRecord
	// WitnessViolations lists online SC-witness checker findings when
	// Config.Witness was set (empty = all witness obligations held).
	// Deliberately excluded from DeterminismHash: golden hashes pin the
	// simulated execution, not the diagnostic instrumentation.
	WitnessViolations []string
	// WitnessChunks and WitnessAccesses count what the witness checker
	// examined (also excluded from DeterminismHash).
	WitnessChunks   int
	WitnessAccesses uint64
	// FaultCounters reports what Config.Faults actually injected (all
	// zero when fault-free). Excluded from DeterminismHash: hashes pin
	// the fault-free execution only.
	FaultCounters fault.Counters
	// WallNs is the host wall-clock time the simulation loop took and
	// EventsFired the number of discrete events the engine dispatched —
	// together the simulator-throughput numbers (events/sec) the scaling
	// sweep reports. WallNs is host measurement, not simulated state: it
	// is excluded from DeterminismHash and never feeds back into the
	// simulation. EventsFired is itself deterministic but stays out of
	// the hash with the other diagnostics.
	WallNs      int64
	EventsFired uint64
}

// Speedup returns other's runtime relative to r (r.Cycles / other.Cycles
// inverted: >1 means r is faster).
func (r *Result) Speedup(other *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(other.Cycles) / float64(r.Cycles)
}

// Run generates cfg.App and simulates it on a fresh machine. It is
// exactly Runner.Run on a throwaway Runner: cold and warm runs execute the
// same construction + Reset + run path, which is what makes their results
// bit-identical.
func Run(cfg Config) (*Result, error) {
	return NewRunner().Run(cfg)
}

// RunProgram simulates an explicit program on a fresh machine (used by the
// litmus tests).
func RunProgram(cfg Config, prog *workload.Program) (*Result, error) {
	return NewRunner().RunProgram(cfg, prog)
}

// Runner is a reusable machine context: one simulated machine — engine,
// caches, directory slabs, arbiters, network, processors — constructed
// once and reset in place between runs. A Runner amortizes the multi-
// megabyte machine arena (the 8 MB L2 tag array, the directory entry
// slabs, the per-processor L1s, maps and FIFOs) across a whole sweep:
// Run produces Results bit-identical to a cold core.Run (both
// DeterminismHash and WitnessHash), because every subsystem's Reset
// restores cold-equivalent state and the state whose shape could leak
// (grown open-addressed tables, chunk pools) is deliberately dropped.
//
// A Runner is NOT safe for concurrent use: it is one machine. Parallel
// sweeps hold one Runner per worker.
type Runner struct {
	m *machine
}

// NewRunner constructs the machine arena once; the first Run pays the same
// cost as a cold core.Run, subsequent Runs reuse the arena.
func NewRunner() *Runner { return &Runner{m: newMachine()} }

// Run generates cfg.App and simulates it on the reused machine. The
// machine size is checked first, so a bad one never reaches the
// generator.
func (r *Runner) Run(cfg Config) (*Result, error) {
	if err := checkProcs(cfg.Procs); err != nil {
		return nil, err
	}
	gen, err := workload.Get(cfg.App)
	if err != nil {
		return nil, err
	}
	prog := gen(cfg.Procs, cfg.Work, cfg.Seed)
	return r.m.runProgram(cfg, prog)
}

// RunProgram simulates an explicit (immutable) program on the reused
// machine. The program is only read, so one memoized *workload.Program may
// be shared by many Runners and runs.
func (r *Runner) RunProgram(cfg Config, prog *workload.Program) (*Result, error) {
	return r.m.runProgram(cfg, prog)
}

func (m *machine) runProgram(cfg Config, prog *workload.Program) (*Result, error) {
	if cfg.Procs == 0 {
		cfg.Procs = len(prog.Threads)
	}
	if len(prog.Threads) != cfg.Procs {
		// A mismatch used to silently resize the machine, letting sweep
		// configs lie about machine size; make it the caller's bug.
		return nil, fmt.Errorf("core: config has %d processors but program %q has %d threads",
			cfg.Procs, prog.Name, len(prog.Threads))
	}
	if err := checkProcs(cfg.Procs); err != nil {
		return nil, err
	}
	if cfg.NumArbiters < 1 {
		cfg.NumArbiters = 1
	}
	m.Reset(cfg)
	for t, ins := range prog.Threads {
		m.addProc(cfg, t, ins)
	}
	m.wirePorts()
	return m.run(cfg)
}

// checkProcs refuses machine sizes outside [1, MaxProcs].
func checkProcs(n int) error {
	if n < 1 || n > MaxProcs {
		return fmt.Errorf("core: %d processors unsupported (max %d)", n, MaxProcs)
	}
	return nil
}

// machine is one assembled system. It is built once (newMachine) and then
// reconfigured in place for every run (Reset): the expensive arenas — the
// 8 MB L2 tag array, the directory entry slabs, per-processor L1s, maps,
// FIFOs and the event heap — survive across runs, while every piece of
// per-run state is scrubbed back to its cold value.
type machine struct {
	eng   *sim.Engine
	net   *network.Network
	st    *stats.Stats
	memry *mem.Memory
	pages *mem.PageTable
	l2    *cache.L2
	dirs  []*directory.Directory
	arbs  []*arbiter.Arbiter
	garb  *arbiter.GArbiter
	env   *proc.Env

	// order is the global commit-order counter shared (by pointer) with
	// every arbiter; Reset zeroes it between runs.
	order uint64

	// sigRec recycles standard-Bloom signature objects across runs: the
	// chunk pools feed dropped signatures back through Env.SigRecycle,
	// and Reset wraps each run's factories so they draw from the parked
	// set. A recycled Bloom is cleared and geometry-fixed — bit-identical
	// to a fresh one — so this is storage recycling only.
	sigRec sig.Recycler

	// bulkProcs/convProcs are the processors of the CURRENT run, in id
	// order; bulkPool/convPool are the per-id processor arenas that
	// survive across runs. Ids arrive as 0, 1, …, so addProc resets and
	// reuses pool[id] when it exists and otherwise appends; a worker
	// running the same geometry repeatedly never reconstructs a processor.
	bulkProcs []*proc.BulkProc
	convProcs []*proc.ConvProc
	//lint:poolsafe processor arena; each entry is fully Reset at reacquisition in addProc
	bulkPool []*proc.BulkProc
	//lint:poolsafe processor arena; each entry is fully Reset at reacquisition in addProc
	convPool []*proc.ConvProc

	// replay is the replay checker's storage, kept across runs.
	//lint:poolsafe checker scratch; verify resets it before every use
	replay replayer
	// reqs recycles the arbiter request records routeCommit hands to the
	// arbitration; the arbiters return them at their last use.
	//lint:poolsafe recycled records are fully reinitialized at reuse and hold no references while parked
	reqs arbiter.RequestPool
	// rangeScratch is commitRanges's reusable set-list buffer; fully
	// overwritten before every use, dead after every call.
	//lint:poolsafe per-call scratch, fully overwritten before every use
	rangeScratch []*lineset.Set
	// rangeSeen backs the address-range computation in commitRanges
	// (arbiter.RangesOfInto); Reset sizes it to the module count.
	rangeSeen []bool
	// privSent marks directory modules already targeted by the current
	// stpvt Wpriv propagation; sized to the module count per call.
	//lint:poolsafe per-call scratch, fully cleared before every use
	privSent []bool
	// wdScratch backs the watchdog's three per-proc trail arrays so a warm
	// runner does not reallocate them every run.
	//lint:poolsafe watchdog backing storage; startWatchdog re-slices and zeroes it per run
	wdScratch []uint64
	// The observers Reset puts on env.Observers: the replay checker's
	// commit log, the SC witness (kept across runs) and the history
	// writer (rebuilt per run around the caller's writer).
	log     commitLog
	witness *sccheck.Checker
	tracer  *history.Writer

	// watchdogErr is set by the liveness watchdog when it detects a
	// stall; the engine stop condition checks it every event.
	watchdogErr *WatchdogError
}

// newMachine constructs the run-independent machine arena. Everything
// configuration-dependent — seed, model, module count, signature kind —
// is applied by Reset before each run.
func newMachine() *machine {
	m := &machine{
		eng:   sim.NewEngine(0),
		st:    stats.New(),
		memry: mem.NewMemory(),
		pages: mem.NewPageTable(),
	}
	m.net = network.New(m.eng, m.st)
	m.l2 = cache.NewL2(32768, 8) // 8 MB / 8-way / 32 B
	m.env = m.buildEnv()
	return m
}

// buildModules (re)builds the address-interleaved directory + arbiter
// modules. Called by Reset only when the module count changes (the wiring
// closures are per-module but stable, so a same-count run just resets the
// existing modules in place and keeps their slabs).
func (m *machine) buildModules(n int) {
	m.dirs = m.dirs[:0]
	m.arbs = m.arbs[:0]
	for i := 0; i < n; i++ {
		d := directory.New(i, m.eng, m.net, m.st, m.l2)
		m.dirs = append(m.dirs, d)
		a := arbiter.New(i, m.eng, m.net, m.st, &m.order)
		m.arbs = append(m.arbs, a)
		// Arbiter i is co-located with directory i (Figure 7(b)).
		dd := d
		a.ForwardW = func(tok arbiter.Token, proc int, w sig.Signature, trueW *lineset.Set) {
			dd.ProcessCommit(dd.NewCommit(tok, proc, w, trueW))
		}
		aa := a
		d.OnDone = func(tok arbiter.Token) { aa.Done(tok) }
	}
}

// Reset reconfigures the machine for one run of cfg, restoring every
// subsystem to a cold-equivalent state in place. The reset order follows
// the dependency chain: engine first (drops any undrained events, which
// may reference pooled protocol records), then the passive state (stats,
// memory, pages, caches), then the protocol modules, then the per-run
// wiring. Each run builds one signature factory, which the directories
// and the processors share (sig.Factory), rather than retaining one: its
// recreation is cheap and keeps the cold/warm equivalence argument
// trivial. The factory is wrapped by the machine's signature recycler,
// which substitutes cleared standard Blooms parked by previous runs for
// fresh allocations — an object-identity substitution the simulation
// cannot observe.
func (m *machine) Reset(cfg Config) {
	m.eng.Reset(cfg.Seed)
	limit := cfg.MaxCycles
	if limit == 0 {
		limit = 2_000_000_000
	}
	m.eng.SetLimit(sim.Time(limit))
	m.net.Reset()
	m.net.Faults = cfg.Faults
	m.st.Reset()
	m.memry.Reset()
	m.pages.Reset()
	if cfg.Stpvt {
		m.pages.MarkStacksPrivate(cfg.Procs)
	}
	m.l2.Reset()

	// stdBloom: only the fixed-geometry Bloom may draw from the machine's
	// signature recycler (see sig.Recycler); exact and tunable signatures
	// pass through their factories untouched.
	stdBloom := cfg.SigKind == sig.KindBloom && cfg.SigGeometry == nil
	sigFactory := sig.NewFactory(cfg.SigKind)
	if cfg.SigGeometry != nil && cfg.SigKind == sig.KindBloom {
		sigFactory = sig.NewTunableFactory(*cfg.SigGeometry)
	}
	sigFactory = m.sigRec.Factory(sigFactory, stdBloom)
	if len(m.rangeSeen) < cfg.NumArbiters {
		m.rangeSeen = make([]bool, cfg.NumArbiters)
	}
	if len(m.dirs) != cfg.NumArbiters {
		m.buildModules(cfg.NumArbiters)
	} else {
		for i := range m.dirs {
			m.dirs[i].Reset()
			m.arbs[i].Reset()
		}
	}
	for i := range m.dirs {
		m.dirs[i].MaxEntries = cfg.DirCacheEntries
		m.dirs[i].SigFactory = sigFactory
		m.arbs[i].Faults = cfg.Faults
	}
	m.garb = nil
	if cfg.NumArbiters > 1 {
		// The G-arbiter is stateless between transactions; recreating it is
		// cheaper than auditing it for reuse.
		m.garb = arbiter.NewGArbiter(m.eng, m.net, m.st, m.arbs)
		m.garb.SetShards(cfg.GArbShards)
	}
	m.order = 0

	// The env closures route through m.dirs/m.arbs/m.garb dynamically, so
	// they survive module rebuilds; only the value fields change per run.
	m.env.Sigs = sigFactory
	m.env.NProcs = cfg.Procs
	m.env.Faults = cfg.Faults
	m.env.Unfinished = 0 // run counts the processors it starts

	clear(m.bulkProcs) // active lists are rebuilt by addProc
	m.bulkProcs = m.bulkProcs[:0]
	clear(m.convProcs)
	m.convProcs = m.convProcs[:0]

	// The observer list, in delivery order (DESIGN.md §16.7). The commit
	// log was handed to the previous run's Result; it is dropped, not
	// truncated — truncating would scrub the caller's slice in place.
	clear(m.env.Observers)
	obs := m.env.Observers[:0]
	bulk := cfg.Model == ModelBulk
	m.log = commitLog{}
	if cfg.CheckSC && bulk {
		obs = append(obs, &m.log)
	}
	if cfg.Witness {
		if m.witness == nil {
			m.witness = sccheck.New()
		}
		m.witness.Reset()
		obs = append(obs, m.witness)
	}
	m.tracer = nil
	if cfg.TraceWriter != nil {
		m.tracer = history.NewWriter(cfg.TraceWriter)
		if cfg.TraceEvents && bulk {
			m.tracer.TraceEvents(m.eng)
		}
		m.tracer.Header(history.Header{
			Model: cfg.Model.String(), Procs: cfg.Procs,
			App: cfg.App, Seed: cfg.Seed, Work: cfg.Work,
		})
		obs = append(obs, m.tracer)
	}
	m.env.Observers = obs
	m.watchdogErr = nil
}

func (m *machine) dirFor(l mem.Line) *directory.Directory {
	return m.dirs[arbiter.RangeOf(l, len(m.dirs))]
}

// buildEnv wires the processor environment once, at machine construction.
// The closures dereference m.dirs/m.arbs/m.garb at call time, so they stay
// valid across Reset even when the module set is rebuilt; the per-run value
// fields (Sigs, NProcs, Faults) are filled in by Reset.
func (m *machine) buildEnv() *proc.Env {
	env := &proc.Env{
		Eng:   m.eng,
		Net:   m.net,
		St:    m.st,
		Mem:   m.memry,
		Pages: m.pages,
		// Chunk pools feed dropped signatures back to the machine's
		// recycler at warm reset; Reset wraps the per-run factories so
		// they draw from the parked set first.
		SigRecycle: m.sigRec.Recycle,
	}
	// The directory internalizes the request hop and the reply delivery
	// through pooled transaction records, so these wrappers are plain
	// routing — no per-miss closures.
	env.ReadLine = func(p int, l mem.Line, excl bool, done func(int)) {
		m.dirFor(l).Read(p, l, excl, done)
	}
	env.WritebackLine = func(p int, l mem.Line, drop bool) {
		m.dirFor(l).Writeback(p, l, drop)
	}
	env.Commit = m.routeCommit
	env.PrivCommit = func(p int, w sig.Signature, trueW *lineset.Set, h chunk.Hold) {
		if len(m.privSent) < len(m.dirs) {
			m.privSent = make([]bool, len(m.dirs))
		}
		sent := m.privSent[:len(m.dirs)]
		clear(sent)
		trueW.ForEach(func(l mem.Line) {
			idx := arbiter.RangeOf(l, len(m.dirs))
			if sent[idx] {
				return
			}
			sent[idx] = true
			// Each per-module record reads w and trueW until its last
			// delivery; it holds the chunk from the send on.
			h.Take()
			m.dirs[idx].SendPrivCommit(p, w, trueW, h)
		})
	}
	env.PreArbitrate = func(p int, granted func()) {
		m.net.SendCall(stats.CatOther, network.CtrlBytes, preArbArriveCB, &preArbMsg{m: m, proc: p, granted: granted})
	}
	env.EndPreArbitrate = func(p int) {
		m.net.SendCall(stats.CatOther, network.CtrlBytes, endPreArbArriveCB, &preArbMsg{m: m, proc: p})
	}
	return env
}

// preArbMsg is one pre-arbitration message (§3.3) of processor proc: a
// request to arbiter 0, whose grant is relayed back to granted, or a
// release. Pre-arbitration is the rare forward-progress path, so each
// message is a fresh record.
type preArbMsg struct {
	m       *machine
	proc    int
	granted func() // the processor's grant continuation
}

func preArbArriveCB(arg any) {
	pm := arg.(*preArbMsg)
	pm.m.arbs[0].PreArbitrate(pm.proc, pm.relay)
}

// relay sends the arbiter's lock grant back to the processor.
func (pm *preArbMsg) relay() {
	pm.m.net.SendCall(stats.CatOther, network.CtrlBytes, preArbGrantedCB, pm)
}

func preArbGrantedCB(arg any) { arg.(*preArbMsg).granted() }

func endPreArbArriveCB(arg any) {
	pm := arg.(*preArbMsg)
	pm.m.arbs[0].EndPreArbitration(pm.proc)
}

// routeCommit translates a processor's permission-to-commit request into
// arbitration: straight to the single owning arbiter, or through the
// G-arbiter when the chunk spans several address ranges (§4.2.3). It
// consumes req synchronously: everything that travels onward, the chunk's
// Hold and FetchR included, is copied into a pooled arbiter request, which
// is what lets the processor recycle its CommitReq records the moment
// Commit returns. The arbitration recycles the arbiter request at its last
// use (DESIGN.md §12).
//
//sim:hotpath
func (m *machine) routeCommit(req *proc.CommitReq) {
	areq := m.reqs.Get()
	areq.Proc = req.Proc
	areq.W = req.W
	areq.R = req.R
	areq.FetchR = req.FetchR
	areq.TrueW = req.TrueW
	areq.Reply = req.Reply
	areq.Hold = req.Hold
	if req.R != nil {
		// R travels with the request (no RSig optimization).
		m.net.Account(stats.CatRdSig, network.SigBytes)
	}
	// An empty W signature compresses to nothing: the permission-to-commit
	// request is a plain control message.
	wBytes := network.SigBytes
	if req.W.Empty() {
		wBytes = network.CtrlBytes
	}
	if len(m.arbs) == 1 {
		m.arbs[0].Send(areq, wBytes) //lint:owner the arbitration recycles the request at its last use
		return
	}
	ranges := m.commitRanges(req.Chunk)
	if len(ranges) == 1 {
		m.arbs[ranges[0]].Send(areq, wBytes) //lint:owner the arbitration recycles the request at its last use
		return
	}
	// Multi-range: Send copies the range list into the request, which
	// keeps the copy's capacity across reuse. The G-arbiter needs R
	// upfront, so a withheld one is fetched first.
	m.garb.Send(areq, ranges) //lint:owner the arbitration recycles the request at its last use
}

// commitRanges returns the address ranges ch's RSet and WSet span, in
// ascending module order. The list is memoized on the chunk: most
// requests are re-sends after a denial, and a chunk's sets only grow, so
// the list is recomputed only when one of their sizes moved (PromoteToW
// can add to WSet while the chunk arbitrates) or the chunk was reused.
//
//sim:hotpath
func (m *machine) commitRanges(ch *chunk.Chunk) []int {
	if !ch.RangesCurrent() {
		m.rangeScratch = append(m.rangeScratch[:0], &ch.RSet, &ch.WSet)
		ch.Ranges = arbiter.RangesOfInto(ch.Ranges[:0], m.rangeScratch, len(m.arbs), m.rangeSeen[:len(m.arbs)])
		ch.MarkRanges()
	}
	return ch.Ranges
}

func (m *machine) addProc(cfg Config, id int, ins []workload.Instr) {
	par := proc.DefaultParams()
	if cfg.ChunkSize > 0 {
		par.ChunkSize = cfg.ChunkSize
	}
	if cfg.MaxChunks > 0 {
		par.MaxChunks = cfg.MaxChunks
	}
	switch cfg.Model {
	case ModelBulk:
		opts := proc.Opts{
			RSigOpt:         cfg.RSigOpt,
			Dypvt:           cfg.Dypvt,
			Stpvt:           cfg.Stpvt,
			PreArbThreshold: 6,
		}
		var p *proc.BulkProc
		if id < len(m.bulkPool) {
			p = m.bulkPool[id]
			p.Reset(ins, par, opts)
		} else {
			p = proc.NewBulkProc(id, m.env, par, opts, ins)
			m.bulkPool = append(m.bulkPool, p)
		}
		m.bulkProcs = append(m.bulkProcs, p)
	case ModelSC:
		m.addConvProc(id, par, proc.SC, ins)
	case ModelRC:
		m.addConvProc(id, par, proc.RC, ins)
	case ModelSCpp:
		m.addConvProc(id, par, proc.SCpp, ins)
	default:
		panic("core: unknown model")
	}
}

func (m *machine) addConvProc(id int, par proc.Params, model proc.Model, ins []workload.Instr) {
	var p *proc.ConvProc
	if id < len(m.convPool) {
		p = m.convPool[id]
		p.Reset(ins, par, model)
	} else {
		p = proc.NewConvProc(id, m.env, par, model, ins)
		m.convPool = append(m.convPool, p)
	}
	m.convProcs = append(m.convProcs, p)
}

func (m *machine) wirePorts() {
	var ports []directory.CachePort
	for _, p := range m.bulkProcs {
		ports = append(ports, p)
	}
	for _, p := range m.convProcs {
		ports = append(ports, p)
	}
	for _, d := range m.dirs {
		d.AttachPorts(ports)
	}
}

// allDone reports whether every processor of the run has finished: each
// one counts itself off Env.Unfinished when it does, so the engine's
// per-event stop test is O(1).
func (m *machine) allDone() bool { return m.env.Unfinished == 0 }

// warmup is one run's warm-up exclusion: once the committed-instruction
// count passes target, the counters are snapshotted into base at cycle,
// and the final stats subtract the snapshot so Table 3/4 metrics describe
// steady state only.
type warmup struct {
	m      *machine
	target uint64
	base   *stats.Stats
	cycle  uint64
}

// warmupPoll is the warm-up check interval in cycles.
const warmupPoll sim.Time = 5000

func warmupPollCB(arg any) {
	w := arg.(*warmup)
	m := w.m
	if m.allDone() {
		return
	}
	if m.st.CommittedInstrs >= w.target {
		snap := m.st.Snapshot()
		w.base = &snap
		w.cycle = uint64(m.eng.Now())
		return
	}
	m.eng.AfterCall(warmupPoll, warmupPollCB, w)
}

func (m *machine) run(cfg Config) (*Result, error) {
	m.env.Unfinished = len(m.bulkProcs) + len(m.convProcs)
	for _, p := range m.bulkProcs {
		p.Start()
	}
	for _, p := range m.convProcs {
		p.Start()
	}
	// Warmup exclusion (see warmup).
	var wu *warmup
	if cfg.WarmupFrac > 0 {
		wu = &warmup{m: m, target: uint64(cfg.WarmupFrac * float64(cfg.Work) * float64(cfg.Procs))}
		m.eng.AfterCall(warmupPoll, warmupPollCB, wu)
	}
	if cfg.Watchdog {
		startWatchdog(m, cfg.WatchdogWindow)
	}
	//lint:deterministic host-side throughput measurement around the event loop; the value only lands in Result.WallNs, which is excluded from DeterminismHash and never feeds simulated state
	wallStart := time.Now()
	m.eng.Run(func() bool { return m.watchdogErr != nil || m.allDone() })
	//lint:deterministic host-side throughput measurement; see wallStart above
	wallNs := time.Since(wallStart).Nanoseconds()
	if m.watchdogErr != nil {
		return nil, fmt.Errorf("core: %s/%s: %w", cfg.Model, cfg.App, m.watchdogErr)
	}
	if !m.allDone() {
		return nil, fmt.Errorf("core: %s/%s deadlocked at cycle %d", cfg.Model, cfg.App, m.eng.Now())
	}
	res := &Result{Config: cfg, WallNs: wallNs, EventsFired: m.eng.Fired()}
	if cfg.Faults != nil {
		res.FaultCounters = cfg.Faults.Counters()
	}
	for _, p := range m.bulkProcs {
		res.PerProc = append(res.PerProc, uint64(p.DoneAt()))
	}
	for _, p := range m.convProcs {
		res.PerProc = append(res.PerProc, uint64(p.DoneAt()))
	}
	res.Cycles = slices.Max(res.PerProc)
	m.st.Cycles = res.Cycles
	m.st.CloseWList(res.Cycles)
	if wu != nil && wu.base != nil {
		m.st.SubtractBase(wu.base, wu.cycle)
	}
	// The Result must not alias the machine: a warm Runner scrubs its
	// stats on the next Reset, which would retroactively zero any Result
	// still holding the live pointer. Hand out a deliberate copy instead.
	final := m.st.Snapshot()
	res.Stats = &final
	if cfg.CheckSC && cfg.Model == ModelBulk {
		res.SCViolations = m.replay.verify(m.log.commits)
		res.ChunksChecked = len(m.log.commits)
		res.Commits = m.log.commits
	}
	if cfg.Witness {
		res.WitnessViolations = m.witness.Strings()
		res.WitnessChunks = m.witness.Chunks()
		res.WitnessAccesses = m.witness.Accesses()
	}
	if m.tracer != nil {
		// Flush the streamed history; the writer's sticky error delivers
		// the first failure anywhere in the stream exactly once.
		if err := m.tracer.Close(); err != nil {
			return nil, fmt.Errorf("core: %s/%s: trace export: %w", cfg.Model, cfg.App, err)
		}
	}
	return res, nil
}
