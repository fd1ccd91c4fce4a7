// Package proc implements the processor models:
//
//   - BulkProc — the BulkSC processor (§3, §4.1): checkpointed chunk
//     execution with full memory reordering inside and across chunks,
//     per-chunk R/W/Wpriv signatures, speculative stores buffered in the
//     L1, commit arbitration, bulk disambiguation squashes, exponential
//     chunk shrinking and pre-arbitration for forward progress, and the
//     statically/dynamically-private data optimizations of §5.
//   - ConvProc — the conventional baselines: SC with read and exclusive
//     prefetching [Gharachorloo et al.], RC with speculation across fences
//     and exclusive prefetching, and SC++ with a SHiQ [Gniady et al.] —
//     exactly the comparison points of the paper's evaluation.
//
// Timing uses an analytic-overlap model on top of the discrete-event
// engine: non-memory instructions advance the dispatch clock at the issue
// width; memory operations perform at engine events, so their global
// interleaving (and thus every value read) is well defined; the
// per-model ordering constraints decide how much memory latency each
// model exposes. This keeps what distinguishes SC, RC, SC++ and BulkSC —
// exposure vs. overlap, squashes, commit costs — while staying fast
// enough to sweep the paper's full evaluation matrix.
package proc

import (
	"bulksc/internal/chunk"
	"bulksc/internal/fault"
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sig"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
	"bulksc/internal/workload"
)

// Params are the core parameters from the paper's Table 2.
type Params struct {
	IssueWidth    int      // instructions dispatched per cycle
	ROB           int      // reorder-buffer entries
	MSHRs         int      // outstanding line fetches
	LSQ           int      // store-buffer entries (conventional models)
	L1Hit         sim.Time // L1 round trip
	SquashPenalty sim.Time // pipeline refill after a squash
	ChunkSize     int      // dynamic instructions per chunk (BulkSC)
	MaxChunks     int      // chunks in flight per processor (BulkSC)
	SpinBackoff   sim.Time // cycles between spin-loop retries
	SHiQ          int      // SC++ speculative history queue entries
}

// DefaultParams returns Table 2's processor configuration.
func DefaultParams() Params {
	return Params{
		IssueWidth:    4,
		ROB:           176,
		MSHRs:         8,
		LSQ:           56,
		L1Hit:         2,
		SquashPenalty: 17,
		ChunkSize:     1000,
		MaxChunks:     2,
		SpinBackoff:   3,
		SHiQ:          2048,
	}
}

// Env bundles the system services a processor needs. It is assembled by
// internal/core when wiring a machine.
type Env struct {
	Eng    *sim.Engine
	Net    *network.Network
	St     *stats.Stats
	Mem    *mem.Memory
	Pages  *mem.PageTable
	Sigs   sig.Factory
	NProcs int

	// Unfinished counts the run's processors whose stream has not fully
	// committed. The machine sets it at the start of a run; each processor
	// decrements it once, where it marks itself finished, so the engine's
	// stop test is O(1) instead of a scan over every processor.
	Unfinished int

	// SigRecycle, when non-nil, receives the signatures a processor's
	// chunk pool drops at warm reset (chunk.Pool.SigRecycler); core wires
	// it to the machine's sig.Recycler so cleared standard Blooms feed
	// the next run's factory instead of the allocator.
	SigRecycle func(sig.Signature)

	// Faults optionally injects processor-side faults (internal/fault):
	// spurious bulk-disambiguation squashes and W-signature aliasing
	// amplification. nil injects nothing and draws nothing.
	Faults *fault.Plan

	// Observers receive the run's processor events, in list order; the
	// machine fills the list once per run.
	Observers []Observer

	// ReadLine routes a demand miss to the owning directory module and
	// calls done at the requester with the granted line state (an int-typed
	// cache.LineState hint, widened to avoid an import cycle in callers)
	// when data arrives.
	ReadLine func(proc int, l mem.Line, excl bool, done func(stateHint int))
	// WritebackLine retires a dirty line to its home module.
	WritebackLine func(proc int, l mem.Line, drop bool)
	// Commit routes a permission-to-commit request to the arbitration
	// system (single arbiter or G-arbiter, per configuration).
	//
	// Commit must consume req SYNCHRONOUSLY: the processor pools its
	// request records and recycles them the moment the call returns, so
	// an implementation that defers work must copy the fields (and func
	// values) it needs rather than retain req itself.
	Commit func(req *CommitReq)
	// PrivCommit propagates an stpvt Wpriv signature to the directories.
	// Every propagation record that will read w or trueW after the call
	// returns must Take h before it does and Release it when done.
	PrivCommit func(proc int, w sig.Signature, trueW *lineset.Set, h chunk.Hold)
	// PreArbitrate requests exclusive commit rights (forward progress).
	PreArbitrate func(proc int, granted func())
	// EndPreArbitrate releases them without a commit.
	EndPreArbitrate func(proc int)
}

// Observer receives a run's processor events at their simulated instants
// (DESIGN.md §16.7). An observer must not change simulation state, so
// turning one on never perturbs the run.
//
//sim:observer
type Observer interface {
	// CommitChunk: at the arbiter's grant event, in global commit order.
	// The chunk is recycled afterwards; copy what is needed.
	CommitChunk(ch *chunk.Chunk)
	// Access: a conventional access at its perform instant; po is its
	// program-order index, fwd marks a load served by the store buffer.
	Access(proc int, po uint64, store bool, a mem.Addr, v uint64, fwd bool)
	// Squash: victims chunks and their instrs executed instructions
	// discarded; genuine is true sharing rather than signature aliasing.
	Squash(proc, victims, instrs int, genuine bool)
	// PreArb: a pre-arbitration grant arrived.
	PreArb(proc int)
}

// CommitReq is the processor-side view of a permission-to-commit request;
// core translates it into arbiter requests.
type CommitReq struct {
	Proc int
	W    sig.Signature
	R    sig.Signature // nil under the RSig optimization
	// Chunk is the requesting chunk, read for routing only: its RSet and
	// WSet decide the address ranges the commit spans, and the range list
	// is memoized on it (chunk.Ranges) across denial re-sends.
	Chunk *chunk.Chunk
	// FetchR retrieves R with its round-trip cost.
	FetchR func(cb func(sig.Signature))
	TrueW  *lineset.Set
	Reply  func(granted bool, order uint64)
	// Hold is the claim an arbitration entry takes on the chunk while it
	// keeps W and TrueW (arbiter.Request.Hold).
	Hold chunk.Hold
}

// ---------------------------------------------------------------------------
// Stream interpreter state
// ---------------------------------------------------------------------------

// fetchState is the architectural interpreter position; it is exactly what
// a checkpoint must capture to re-execute a chunk.
type fetchState struct {
	pos          int    // index into the static stream
	computeLeft  uint32 // remaining instructions of a split compute block
	barriersDone int    // dynamic barriers completed (fixes barrier targets)
	barPhase     int    // 0 = not yet arrived at current barrier, 1 = waiting
}

// fetcher interprets one thread's static stream.
type fetcher struct {
	ins []workload.Instr
	fetchState
	// in caches ins[inPos], the instruction last read: a spin re-check
	// reads the same entry again, and at 256 procs each read of the
	// per-proc stream array tends to miss the host cache. It lives outside
	// fetchState, so checkpoints neither carry nor restore it.
	inPos int
	in    workload.Instr
}

func newFetcher(ins []workload.Instr) fetcher { return fetcher{ins: ins, inPos: -1} }

// current returns the instruction at the interpreter position.
//
//sim:hotpath
func (f *fetcher) current() workload.Instr {
	if f.inPos != f.pos {
		f.in = f.ins[f.pos]
		f.inPos = f.pos
	}
	return f.in
}

// done reports end of stream.
func (f *fetcher) done() bool { return f.current().Kind == workload.OpEnd }

// checkpoint captures the interpreter position.
func (f *fetcher) checkpoint() fetchState { return f.fetchState }

// restore rewinds to a checkpoint.
func (f *fetcher) restore(s fetchState) { f.fetchState = s }

// barrierTarget returns the generation this thread's next barrier must
// reach: one past the barriers already completed.
func (f *fetcher) barrierTarget() uint64 { return uint64(f.barriersDone) + 1 }

// Barrier state layout: the instruction's Addr is the barrier lock; the
// arrival counter and generation flag live on the next two sync lines.
func barrierCount(in workload.Instr) mem.Addr { return in.Addr + mem.LineBytes }
func barrierGen(in workload.Instr) mem.Addr   { return in.Addr + 2*mem.LineBytes }
