// Package chunk holds the per-chunk speculative state of BulkSC: the R, W
// and Wpriv signatures, the exact line sets that back the signatures (used
// to apply commits, to classify aliased squashes and to compute Table 3's
// set sizes), the speculative write buffer, and the load/store logs that
// feed the SC replay checker.
//
// A chunk is created at a checkpoint, accumulates accesses while the
// processor executes it, then either commits (its buffered writes become
// the committed memory state, in global arbitration order) or squashes
// (everything is discarded and the processor re-executes from the
// checkpoint).
//
// The exact sets are open-addressed lineset structures rather than Go
// maps, and chunks are recycled through a Pool across squash/re-execute
// cycles: squash-heavy applications (radix, raytrace) churn chunk state
// constantly, and pooling makes a re-executed chunk's bookkeeping
// allocation-free. Committed chunks are recycled too, once the last Hold
// on them drops. A generation counter (Gen) guards stale references — any
// callback or Hold that may outlive a squash must capture Gen and compare.
package chunk

import (
	"fmt"

	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/sig"
	"bulksc/internal/slab"
)

// State is a chunk's lifecycle position.
type State int

const (
	// Executing: the processor is still dispatching the chunk's
	// instructions.
	Executing State = iota
	// Completed: all instructions executed; waiting for outstanding line
	// fills before arbitration may start.
	Completed
	// Arbitrating: a permission-to-commit request is in flight.
	Arbitrating
	// Committing: permission granted; invalidations propagating.
	Committing
	// Committed: fully done.
	Committed
	// Squashed: discarded.
	Squashed
)

func (s State) String() string {
	return [...]string{"executing", "completed", "arbitrating", "committing", "committed", "squashed"}[s]
}

// AccessRec logs one memory access for the replay checker, in program
// order within the chunk.
type AccessRec struct {
	IsStore bool
	Addr    mem.Addr
	Value   uint64 // store: value written; load: load observed
}

// Chunk is one dynamic chunk's speculative context.
type Chunk struct {
	Proc     int    // owning processor
	Seq      uint64 // per-processor chunk sequence number
	Slot     int    // hardware signature-pair slot (0..MaxSlots-1)
	Checkpt  int    // stream position of the checkpoint
	State    State
	Target   int // instruction budget for this chunk
	Executed int // dynamic instructions dispatched so far

	// Gen is the recycling generation. Pool.Put bumps it; callbacks that
	// may fire after a squash capture it and bail on mismatch, so pooled
	// reuse can never corrupt a successor chunk.
	Gen uint64

	// Signatures (superset encodings used by the protocol).
	R, W, Wpriv sig.Signature

	// Sum, when non-nil, is the owning processor's live-summary signature:
	// the BDM's incrementally-maintained union of every active chunk's
	// R∪W (DESIGN.md §16). RecordLoad, RecordStore and PromoteToW mirror
	// each shared-line insert into it, so an incoming committing W that
	// does not intersect the summary provably cannot conflict with any
	// chunk and the whole disambiguation walk is skipped. Proc-owned
	// wiring: openChunk attaches it at acquisition; recycling detaches it.
	Sum sig.Signature

	// Exact line sets backing the signatures. RSet/WSet drive commit
	// application and stats; PrivSet backs Wpriv.
	RSet, WSet, PrivSet lineset.Set

	// WriteBuf holds the chunk's speculative word values (Rule1: not
	// visible to other chunks until commit).
	WriteBuf lineset.Map

	// lastLoad is line+1 of the most recent shared-line load (0: none),
	// the key of RecordLoad's repeat-load fast path.
	lastLoad uint64

	// Ranges is the commit's memoized address-range list (the arbiter
	// modules its RSet and WSet span). Core computes and stores it on a
	// request; RangesCurrent tells whether it still holds. The storage
	// survives recycling like Log's; the key does not.
	Ranges []int
	// rangesR/rangesW are the RSet/WSet sizes Ranges was computed at
	// (rangesR < 0: nothing memoized). Both sets only grow within an
	// incarnation, so equal sizes mean equal contents.
	rangesR, rangesW int

	// Log is the program-order access log for the replay checker.
	Log []AccessRec

	// Pending counts line fills requested by this chunk that have not
	// arrived; arbitration may not start until it reaches zero.
	Pending int

	// ReqsOut counts commit requests in flight through the arbitration
	// system. A squashed chunk may be recycled only at zero: while a
	// request is out, the arbiter (and, after a grant, the directory) hold
	// references to the chunk's signatures and exact sets.
	ReqsOut int

	// Holds counts the outstanding Holds on this incarnation (see Hold):
	// arbiter W-list entries and stpvt Wpriv propagations that still read
	// the chunk's signatures or exact sets. A committed chunk may be
	// recycled only at zero.
	Holds int

	// CommitOrder is assigned by the arbiter at grant time.
	CommitOrder uint64

	// ReplyFn and FetchRFn are the chunk's commit-request callbacks,
	// allocated once per chunk LIFETIME by the owning processor (not per
	// request): they capture only the processor and the chunk pointer,
	// both of which are stable across pooled recycling, so re-sends after
	// a denial and chunks recycled through the Pool reuse the same two
	// closures instead of allocating fresh ones per request. Stale
	// invocations are impossible by construction — a chunk is recycled
	// only at ReqsOut == 0, and each in-flight request calls ReplyFn
	// exactly once.
	//lint:poolsafe per-chunk-lifetime wiring; captures only stable pointers, intentionally survives recycling
	ReplyFn func(granted bool, order uint64)
	//lint:poolsafe per-chunk-lifetime wiring; captures only stable pointers, intentionally survives recycling
	FetchRFn func(cb func(sig.Signature))
	// UnheldFn, when set, runs each time Holds drops back to zero. Like
	// ReplyFn it is allocated once per chunk LIFETIME by the owning
	// processor and captures only stable pointers; releases that outlive
	// the incarnation they were taken on never reach it (see Hold).
	//lint:poolsafe per-chunk-lifetime wiring; captures only stable pointers, intentionally survives recycling
	UnheldFn func()
}

// Hold is one holder's claim on a chunk incarnation's signatures and
// exact sets. The holder calls Take when it starts referencing them and
// Release when it stops; both are no-ops once the chunk has been recycled
// since the Hold was made (Gen mismatch), exactly like every other
// Gen-guarded callback, so a claim that outlives a squash-and-Put can
// neither pin nor free the chunk's next incarnation. The zero Hold is
// inert: records that reference no chunk carry it.
type Hold struct {
	c   *Chunk
	gen uint64
}

// Hold returns a claim on the chunk's current incarnation.
func (c *Chunk) Hold() Hold { return Hold{c: c, gen: c.Gen} }

// Take registers the claim.
//
//sim:hotpath
func (h Hold) Take() {
	if h.c != nil && h.c.Gen == h.gen {
		h.c.Holds++
	}
}

// Release drops the claim; the last release of an incarnation runs its
// UnheldFn, which may recycle the chunk.
//
//sim:hotpath
func (h Hold) Release() {
	c := h.c
	if c == nil || c.Gen != h.gen {
		return
	}
	c.Holds--
	if c.Holds == 0 && c.UnheldFn != nil {
		c.UnheldFn()
	}
}

// New returns a fresh chunk for proc at checkpoint pos using the given
// signature factory. arena, when non-nil, supplies the backing arrays of
// the chunk's exact sets and write buffer (see Pool.Drain: it lets a
// warm-reused machine re-walk the cold capacity history from recycled
// storage instead of the allocator).
func New(f sig.Factory, arena *slab.Pool[uint64], proc int, seq uint64, slot, pos, target int) *Chunk {
	c := &Chunk{
		R:     f(),
		W:     f(),
		Wpriv: f(),
	}
	c.RSet.UseArena(arena)
	c.WSet.UseArena(arena)
	c.PrivSet.UseArena(arena)
	c.WriteBuf.UseArena(arena)
	c.init(proc, seq, slot, pos, target)
	return c
}

// init (re)sets the per-execution fields; signatures and sets must already
// be empty.
func (c *Chunk) init(proc int, seq uint64, slot, pos, target int) {
	c.Proc = proc
	c.Seq = seq
	c.Slot = slot
	c.Checkpt = pos
	c.State = Executing
	c.Target = target
	c.Executed = 0
	c.Pending = 0
	c.ReqsOut = 0
	c.Holds = 0
	c.CommitOrder = 0
	c.lastLoad = 0
	c.rangesR = -1
}

// RecordLoad notes a load of a and the value it observed. The R signature
// is updated unless private (the stpvt optimization skips R updates for
// statically-private data).
//
// Only a line new to RSet is inserted into R and the live summary: both
// already hold every RSet line (R since the line's first load, the summary
// since then or since its last rebuild from R), and re-inserting a present
// line sets no bit. A load of the same line as the previous load skips the
// RSet probe too, but only while the probe could not grow the table: Add
// grows at the threshold even for a present line, and the table's
// capacity history fixes its iteration order.
//
//sim:hotpath
func (c *Chunk) RecordLoad(a mem.Addr, v uint64, private bool) {
	if !private {
		l := a.LineOf()
		if k := uint64(l) + 1; k != c.lastLoad || c.RSet.AtGrowth() {
			c.lastLoad = k
			if c.RSet.Add(l) {
				c.R.Add(l)
				if c.Sum != nil {
					c.Sum.Add(l)
				}
			}
		}
	}
	c.Log = append(c.Log, AccessRec{Addr: a, Value: v})
}

// RecordStore buffers a speculative store. If priv, the write goes to
// Wpriv instead of W (paper §5: writes to private data are exempt from
// consistency arbitration and disambiguation).
//
//sim:hotpath
func (c *Chunk) RecordStore(a mem.Addr, v uint64, priv bool) {
	l := a.LineOf()
	if priv {
		c.Wpriv.Add(l)
		c.PrivSet.Add(l)
	} else {
		c.W.Add(l)
		c.WSet.Add(l)
		if c.Sum != nil {
			c.Sum.Add(l)
		}
	}
	c.WriteBuf.Put(a.Align(), v)
	c.Log = append(c.Log, AccessRec{IsStore: true, Addr: a, Value: v})
}

// PromoteToW moves line l from Wpriv to W, the "add back" step when a
// dynamically-private prediction stops working (§5.2). Word values stay in
// WriteBuf. It reports whether l was private.
//
//sim:hotpath
func (c *Chunk) PromoteToW(l mem.Line) bool {
	if !c.PrivSet.Remove(l) {
		return false
	}
	c.W.Add(l)
	c.WSet.Add(l)
	if c.Sum != nil {
		c.Sum.Add(l)
	}
	// Wpriv is a superset encoding; the stale bit is harmless (it only
	// matters for ∈ checks on external accesses, which now also hit W).
	return true
}

// Forward returns the chunk's buffered value for a, if any — the
// store-to-load forwarding path within and across in-flight chunks.
//
//sim:hotpath
func (c *Chunk) Forward(a mem.Addr) (uint64, bool) {
	return c.WriteBuf.Get(a.Align())
}

// RangesCurrent reports whether Ranges was computed for the chunk's
// current RSet and WSet.
//
//sim:hotpath
func (c *Chunk) RangesCurrent() bool {
	return c.rangesR == c.RSet.Len() && c.rangesW == c.WSet.Len()
}

// MarkRanges records that Ranges now matches the current RSet and WSet.
//
//sim:hotpath
func (c *Chunk) MarkRanges() { c.rangesR, c.rangesW = c.RSet.Len(), c.WSet.Len() }

// WroteLine reports whether the chunk speculatively wrote any word of l
// (through either W or Wpriv).
//
//sim:hotpath
func (c *Chunk) WroteLine(l mem.Line) bool {
	return c.WSet.Has(l) || c.PrivSet.Has(l)
}

// ConflictsWith reports whether an incoming committing W signature
// collides with this chunk: (Wc ∩ R) ∪ (Wc ∩ W) ≠ ∅. Wpriv is exempt by
// design. trueW, when non-nil, is the committer's exact write set; the
// second result reports whether the collision is genuine (shares a real
// line) as opposed to pure signature aliasing.
//
//sim:hotpath
func (c *Chunk) ConflictsWith(wc sig.Signature, trueW *lineset.Set) (hit, genuine bool) {
	if !wc.Intersects(c.R) && !wc.Intersects(c.W) {
		return false, false
	}
	if trueW != nil {
		// ForEach and this literal are both inlined (-gcflags=-m reports
		// "can inline ConflictsWith.func1" / "inlining call to ForEach"),
		// so the capture of `genuine` never materializes a heap closure;
		// scripts/hotpath_escape.sh cross-checks this.
		//lint:alloc closure fully inlined; verified non-escaping via -gcflags=-m
		trueW.ForEach(func(l mem.Line) {
			if genuine {
				return
			}
			if c.RSet.Has(l) || c.WSet.Has(l) {
				genuine = true
			}
		})
	}
	return true, genuine
}

// Active reports whether the chunk can still be squashed by an incoming
// commit (it has not been granted commit permission itself, nor already
// squashed).
func (c *Chunk) Active() bool {
	return c.State == Executing || c.State == Completed || c.State == Arbitrating
}

func (c *Chunk) String() string {
	return fmt.Sprintf("chunk{p%d #%d %s R=%d W=%d priv=%d}",
		c.Proc, c.Seq, c.State, c.RSet.Len(), c.WSet.Len(), c.PrivSet.Len())
}

// ---------------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------------

// Pool recycles Chunk objects — including their signatures, exact sets,
// write buffers and logs. It is owned by one processor (the simulator is
// single-goroutine per machine; machines running in parallel each have
// their own pools).
//
// A chunk enters the pool only once nothing external can still read it,
// through one of two doors:
//
//   - Put, the squash path: the chunk is cleared in place and keeps its
//     grown tables on the free list, so re-execution is allocation-free.
//   - Adopt, the retirement path: a committed chunk whose last Hold has
//     dropped, or a squashed one whose posthumous grant has drained. It is
//     stripped to the cold shape of a freshly constructed chunk and kept
//     on the cold list. Drain does the same to every free chunk at a warm
//     reset.
//
// Get pops free, then cold, then constructs. A cold chunk is
// indistinguishable from a new one (same empty tables at zero capacity,
// signatures rebuilt from the current factory), so retiring chunks within
// a run or across runs cannot change what any later Get hands out.
type Pool struct {
	free []*Chunk // squashed: cleared in place, grown tables kept
	cold []*Chunk // retired: cold shape, no signatures

	// constructed counts the chunks Get had to build with New.
	constructed uint64

	// SigRecycler, when set, receives the signatures Adopt and Drain
	// drop instead of leaving them to the garbage collector (typically
	// sig.Recycler.Recycle, which parks standard Blooms for the factory
	// and ignores everything else). Pure storage wiring: a recycled
	// signature is cleared and geometry-fixed, so reuse is invisible to
	// the simulation.
	//lint:poolsafe machine-lifetime recycler wiring; storage sink only, never simulated state
	SigRecycler func(sig.Signature)
}

// Constructed reports how many chunks the pool has built with New over its
// lifetime; every other Get was served by recycling.
func (p *Pool) Constructed() uint64 { return p.constructed }

// strip reduces c to the cold shape: its signatures are detached (routed
// through the recycler when one is wired), its sets and write buffer
// release their arrays to the arena, and the log is truncated. Only the
// struct, its Gen counter, its lifetime callbacks and the append-only Log
// storage survive.
func (p *Pool) strip(c *Chunk) {
	if p.SigRecycler != nil {
		p.SigRecycler(c.R)
		p.SigRecycler(c.W)
		p.SigRecycler(c.Wpriv)
	}
	c.R, c.W, c.Wpriv = nil, nil, nil
	c.Sum = nil
	c.RSet.Release()
	c.WSet.Release()
	c.PrivSet.Release()
	c.WriteBuf.Release()
	c.Log = c.Log[:0]
	c.lastLoad = 0
}

// Get returns a ready chunk: a squashed one from the free list, else a
// cold one (its signatures rebuilt from the current factory), else a new
// one.
//
//sim:hotpath
//sim:pool acquire
func (p *Pool) Get(f sig.Factory, arena *slab.Pool[uint64], proc int, seq uint64, slot, pos, target int) *Chunk {
	var c *Chunk
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else if n := len(p.cold); n > 0 {
		c = p.cold[n-1]
		p.cold[n-1] = nil
		p.cold = p.cold[:n-1]
		c.R, c.W, c.Wpriv = f(), f(), f()
	} else {
		p.constructed++
		return New(f, arena, proc, seq, slot, pos, target)
	}
	c.init(proc, seq, slot, pos, target)
	return c
}

// Put recycles a squashed chunk. The caller asserts no external component
// still holds a reference that could mutate or read c later; in-processor
// callbacks are defused by the Gen bump.
//
//sim:hotpath
//sim:pool release
func (p *Pool) Put(c *Chunk) {
	c.Gen++
	c.R.Clear()
	c.W.Clear()
	c.Wpriv.Clear()
	c.RSet.Reset()
	c.WSet.Reset()
	c.PrivSet.Reset()
	c.WriteBuf.Reset()
	c.Log = c.Log[:0]
	c.lastLoad = 0
	c.Sum = nil // the summary outlives the chunk; drop the proc's wiring
	p.free = append(p.free, c)
}

// Adopt retires a chunk onto the cold list, stripped to the shape Drain
// produces. The caller asserts nothing can read c any more: within a run
// that means the chunk has no Holds left and no request in flight. Commit
// observers (the replay checker's records, the witness, the tracer) copy
// what they need at the commit instant and keep no reference. The Gen
// bump defuses every callback and Hold of the retired incarnation.
//
//sim:pool release
func (p *Pool) Adopt(c *Chunk) {
	c.Gen++
	p.strip(c)
	p.cold = append(p.cold, c)
}

// Drain prepares the pool for reuse across a warm machine reset
// (DESIGN.md §11). Retaining squashed chunks as-is would violate the
// cold/warm bit-identity contract: their open-addressed sets keep grown
// capacities, and slot-order iteration depends on capacity. So every free
// chunk is stripped to the cold shape and moves to the cold list: its
// sets and write buffer return their arrays to the chunk arena (Release
// restores the zero-value cold shape, so the next run re-walks the cold
// growth history from recycled storage) and its signatures are dropped
// (the next Get rebuilds them from that run's factory, which may differ
// in kind or geometry).
func (p *Pool) Drain() {
	for i, c := range p.free {
		p.strip(c)
		p.cold = append(p.cold, c)
		p.free[i] = nil
	}
	p.free = p.free[:0]
}
