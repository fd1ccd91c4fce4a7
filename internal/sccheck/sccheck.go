// Package sccheck is the repository's sequential-consistency witness
// checker: the one implementation of the SC obligations, fed online by the
// machine and offline by internal/history/gk.
//
// BulkSC's central claim is that chunked, reordered, speculatively-executed
// programs still *look* sequentially consistent: the arbiter serializes
// chunks into a global commit order, and the paper argues (§3) that the
// resulting execution is indistinguishable from some interleaving of the
// per-processor programs in which each chunk is a single atomic step.
//
// This package checks that claim independently, following the witness-based
// formulation of SC verification (Qadeer's model-checking construction and
// QED-style MCM witness checking): the implementation under test *names* a
// total order — the arbiter's global commit-order counter, or the perform
// order of a conventional machine — and the checker verifies that the named
// order actually explains every observed value. Five obligations are
// discharged, incrementally and with O(footprint) state:
//
//  1. Total order — commit orders are strictly increasing in arrival order
//     (gaps are fine: a squashed chunk may consume an order that never
//     commits), and each processor's chunk sequence embeds into the global
//     order.
//  2. Chunk atomicity — two reads of one word within a chunk, with no
//     intervening same-chunk store, observe the same value: no other
//     chunk's commit interleaved the chunk's accesses.
//  3. Value coherence — every read not served by the reader's own buffered
//     store returns the value of the most recent store to that word in the
//     named order.
//  4. Forwarding — a load after a same-chunk store to the same word
//     observes the buffered value.
//  5. Program order — a conventional processor's accesses perform in
//     program order. The SC baseline must pass; RC genuinely relaxes
//     store→load order (a drained store performs after younger loads),
//     which surfaces here — the store-buffer litmus tests assert exactly
//     that.
//
// Executions arrive in one of two shapes. Chunked executions are pushed a
// chunk at a time — BeginChunk, one ChunkOp per logged access in program
// order, EndChunk. Conventional executions report each architectural
// access at its perform instant through Access. The Checker has two feeds:
// the machine, which calls CommitChunk (that push loop over a committed
// *chunk.Chunk) at the arbiter's grant event and Access at each perform,
// and the offline checker gk.Check, which pushes a parsed NDJSON history
// through the same calls. Online and offline verdicts, counts and
// violation text are therefore identical by construction.
//
// Unlike core's replay checker, which re-derives values from the logs after
// the run, the witness checker validates the implementation's *own claimed
// serialization* without retaining any chunk, so it can gate long fuzz and
// integration runs.
package sccheck

import (
	"fmt"

	"bulksc/internal/chunk"
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
)

// Kind classifies a witness violation by the obligation it breaks.
type Kind int

const (
	// KindTotalOrder: commit orders not strictly increasing in arrival
	// order, or a processor's chunk sequence does not embed into the
	// global order.
	KindTotalOrder Kind = iota
	// KindAtomicity: two same-chunk reads of one word, with no intervening
	// same-chunk store, observed different values — some other chunk's
	// commit interleaved the chunk's accesses.
	KindAtomicity
	// KindCoherence: a read observed a value different from the most
	// recent store in the witness order.
	KindCoherence
	// KindForwarding: a load following a same-chunk store to the same word
	// did not observe the buffered value.
	KindForwarding
	// KindProgramOrder: a conventional processor's accesses performed out
	// of program order (the RC store-buffer relaxation surfaces here).
	KindProgramOrder
)

func (k Kind) String() string {
	return [...]string{"total-order", "atomicity", "coherence", "forwarding", "program-order"}[k]
}

// Violation is one discharged-obligation failure.
type Violation struct {
	Kind Kind
	Proc int
	// Order is the global commit order (chunks) or witness arrival index
	// (conventional accesses) at which the violation was detected.
	Order uint64
	Addr  mem.Addr
	// Got is the observed value; Want the value the witness requires.
	Got, Want uint64
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("sccheck[%s] proc %d order %d addr %#x got %d want %d: %s",
		v.Kind, v.Proc, v.Order, uint64(v.Addr), v.Got, v.Want, v.Detail)
}

// wordState is one word of the witness memory: its last committed value
// and the commit that produced it.
type wordState struct {
	val   uint64
	order uint64
	proc  int
}

// DefaultMaxViolations caps the retained violation records; Total keeps
// counting past the cap.
const DefaultMaxViolations = 20

// procState is one processor's embedding state.
type procState struct {
	order uint64 // last commit order (chunks)
	seq   uint64 // last chunk sequence number (chunks)
	po    uint64 // last program-order index (accesses)
	// seen reports whether the processor reported anything yet; its first
	// chunk or access sets the baseline the later ones must exceed. A
	// processor reports chunks or accesses, never both: a machine runs one
	// model, and history.Read rejects histories mixing the two shapes.
	seen bool
}

// openChunk names the chunk being pushed: its processor, per-processor
// sequence number and claimed commit order.
type openChunk struct {
	proc       int
	seq, order uint64
}

// Checker verifies the SC-witness obligations over one execution, as the
// execution is pushed into it. It is not safe for concurrent use; the
// simulator is single-goroutine per machine.
//
// The zero value is an empty checker ready for use, as New returns it
// (all state grows lazily, so neither needs a processor count).
//
// The checker is an observer (a proc.Observer): it reads committed chunks
// and conventional accesses but must never write back into simulated
// state, or enabling the witness would perturb the determinism hash (the
// property the hashneutral lint pass proves — all fields below are
// checker-owned).
type Checker struct {
	// MaxViolations caps len(Violations()); 0 means DefaultMaxViolations.
	MaxViolations int

	// The witness memory: words maps a word address to its state's index
	// in states, so every access costs one open-addressed probe. Absent
	// words are zero, matching the simulator's zero-initialized
	// mem.Memory. Nothing iterates words, so its slot order never reaches
	// the verdict.
	words  lineset.Map
	states []wordState

	// lastOrder is the highest commit order seen; arrival must be in
	// strictly increasing order.
	lastOrder uint64

	// procs is the per-processor embedding state, grown on demand.
	procs []procState

	// arrivals counts conventional accesses; it is the witness order for
	// the conventional models (every architectural access performs at a
	// distinct engine instant).
	arrivals uint64

	// cur is the chunk between BeginChunk and EndChunk.
	cur openChunk
	// Per-chunk scratch, reused across chunks (allocation-free at steady
	// state).
	overlay lineset.Map // same-chunk speculative write buffer replica
	seen    lineset.Map // first observed value per word read in the chunk

	violations []Violation
	total      int

	chunks   int
	accesses uint64
}

// New returns an empty checker.
func New() *Checker { return &Checker{} }

// Reset empties the checker in place so a warm machine reuse (core.Runner)
// starts the next run's audit from a fresh witness. Capacity is retained
// everywhere it cannot reach the verdict: the witness-memory table is only
// probed by key (never iterated), the per-processor slice is truncated
// and regrown with the same zero values a cold proc() appends, and the
// overlay/seen scratch maps' slot-order ForEach publishes only
// commutative per-word writes — so a warm checker's violations, counts
// and WitnessHash are bit-identical to a cold one's.
func (c *Checker) Reset() {
	c.MaxViolations = 0
	c.words.Reset()
	c.states = c.states[:0]
	c.lastOrder = 0
	c.procs = c.procs[:0]
	c.arrivals = 0
	c.cur = openChunk{}
	c.overlay.Reset()
	c.seen.Reset()
	clear(c.violations) // release Detail strings
	c.violations = c.violations[:0]
	c.total = 0
	c.chunks = 0
	c.accesses = 0
}

// proc returns proc p's embedding state, growing the table to reach it.
func (c *Checker) proc(p int) *procState {
	for len(c.procs) <= p {
		c.procs = append(c.procs, procState{})
	}
	return &c.procs[p]
}

// word returns the witness memory's state for the aligned word a.
//
//sim:hotpath
func (c *Checker) word(a mem.Addr) wordState {
	if i, ok := c.words.Get(a); ok {
		return c.states[i]
	}
	return wordState{}
}

// setWord publishes w as the aligned word a's state.
//
//sim:hotpath
func (c *Checker) setWord(a mem.Addr, w wordState) {
	if i, ok := c.words.GetOrPut(a, uint64(len(c.states))); ok {
		c.states[i] = w
		return
	}
	c.states = append(c.states, w)
}

func (c *Checker) report(v Violation) {
	c.total++
	max := c.MaxViolations
	if max <= 0 {
		max = DefaultMaxViolations
	}
	if len(c.violations) < max {
		c.violations = append(c.violations, v)
	}
}

// CommitChunk discharges the witness obligations for one committed chunk.
// It must be called at the chunk's commit instant (the arbiter's grant
// event), in grant order, as the machine's observer list delivers it. It
// reads the chunk's Proc, Seq, CommitOrder and Log and keeps no reference.
func (c *Checker) CommitChunk(ch *chunk.Chunk) {
	c.BeginChunk(ch.Proc, ch.Seq, ch.CommitOrder)
	for _, rec := range ch.Log {
		c.ChunkOp(rec.IsStore, rec.Addr, rec.Value)
	}
	c.EndChunk()
}

// BeginChunk opens the audit of one atomic chunk: processor proc's chunk
// number seq, claimed at global commit order order. Chunks must begin in
// the order they claim to commit, and each must be closed by EndChunk
// before the next begins. It discharges the total-order obligation.
func (c *Checker) BeginChunk(proc int, seq, order uint64) {
	c.chunks++
	c.cur = openChunk{proc: proc, seq: seq, order: order}
	if order <= c.lastOrder {
		c.report(Violation{
			Kind: KindTotalOrder, Proc: proc, Order: order,
			Detail: fmt.Sprintf("chunk #%d arrived after order %d", seq, c.lastOrder),
		})
	}
	c.lastOrder = order
	ps := c.proc(proc)
	if ps.seen {
		if order <= ps.order {
			c.report(Violation{
				Kind: KindTotalOrder, Proc: proc, Order: order,
				Detail: fmt.Sprintf("chunk #%d order not after processor's previous order %d",
					seq, ps.order),
			})
		}
		if seq <= ps.seq {
			c.report(Violation{
				Kind: KindTotalOrder, Proc: proc, Order: order,
				Detail: fmt.Sprintf("chunk #%d committed after chunk #%d of the same processor",
					seq, ps.seq),
			})
		}
	}
	ps.order, ps.seq, ps.seen = order, seq, true
}

// ChunkOp audits the open chunk's next access in program order: a store of
// v to a, or a load that observed v. overlay replicates the chunk's
// speculative write buffer; seen pins the first observed value of every
// word read before it is locally written. It discharges the atomicity,
// coherence and forwarding obligations.
func (c *Checker) ChunkOp(store bool, a mem.Addr, v uint64) {
	c.accesses++
	aa := a.Align()
	if store {
		c.overlay.Put(aa, v)
		return
	}
	if want, ok := c.overlay.Get(aa); ok {
		// Same-chunk forwarding.
		if v != want {
			c.report(Violation{
				Kind: KindForwarding, Proc: c.cur.proc, Order: c.cur.order, Addr: a,
				Got: v, Want: want,
				Detail: fmt.Sprintf("chunk #%d load not forwarded from same-chunk store", c.cur.seq),
			})
		}
		return
	}
	if want, ok := c.seen.Get(aa); ok {
		// Re-read with no intervening same-chunk store: atomicity demands
		// the same value.
		if v != want {
			c.report(Violation{
				Kind: KindAtomicity, Proc: c.cur.proc, Order: c.cur.order, Addr: a,
				Got: v, Want: want,
				Detail: fmt.Sprintf("chunk #%d re-read diverged: another commit interleaved", c.cur.seq),
			})
		}
		return
	}
	// First read of the word: the witness memory as of this commit point
	// must explain it.
	if w := c.word(aa); v != w.val {
		c.report(Violation{
			Kind: KindCoherence, Proc: c.cur.proc, Order: c.cur.order, Addr: a,
			Got: v, Want: w.val,
			Detail: fmt.Sprintf("chunk #%d load differs from last store (proc %d, order %d)",
				c.cur.seq, w.proc, w.order),
		})
	}
	c.seen.Put(aa, v)
}

// EndChunk closes the open chunk: its writes are published into the
// witness memory at its commit point and the per-chunk scratch is reset in
// place.
func (c *Checker) EndChunk() {
	c.overlay.ForEach(func(a mem.Addr, v uint64) {
		c.setWord(a, wordState{val: v, order: c.cur.order, proc: c.cur.proc})
	})
	c.overlay.Reset()
	c.seen.Reset()
}

// Access discharges the witness obligations for one conventional-model
// architectural access at its perform instant. po is the processor's
// program-order index for the operation (assigned at dispatch, strictly
// increasing per processor; the first access sets the baseline); fwd marks
// a load served from the processor's own store buffer, which is exempt
// from the coherence check (its ordering debt is collected when the
// buffered store itself performs, as a program-order violation).
//
//sim:hotpath
func (c *Checker) Access(proc int, po uint64, store bool, a mem.Addr, v uint64, fwd bool) {
	c.arrivals++
	c.accesses++
	aa := a.Align()

	if ps := c.proc(proc); ps.seen && po <= ps.po {
		c.report(Violation{
			Kind: KindProgramOrder, Proc: proc, Order: c.arrivals, Addr: a, Got: v,
			//lint:alloc violation-report formatting; runs only when an SC violation is detected
			Detail: fmt.Sprintf("op po=%d performed after po=%d", po, ps.po),
		})
	} else {
		ps.po, ps.seen = po, true
	}

	if store {
		c.setWord(aa, wordState{val: v, order: c.arrivals, proc: proc})
		return
	}
	if fwd {
		return
	}
	if w := c.word(aa); v != w.val {
		c.report(Violation{
			Kind: KindCoherence, Proc: proc, Order: c.arrivals, Addr: a, Got: v, Want: w.val,
			//lint:alloc violation-report formatting; runs only when an SC violation is detected
			Detail: fmt.Sprintf("load differs from last store (proc %d, order %d)", w.proc, w.order),
		})
	}
}

// Ok reports whether no obligation failed.
func (c *Checker) Ok() bool { return c.total == 0 }

// Total returns the number of violations detected, including any past the
// retention cap.
func (c *Checker) Total() int { return c.total }

// Violations returns a copy of the retained violation records. The copy
// matters for warm reuse: Reset scrubs the checker's internal slice in
// place, so handing out the live slice would retroactively zero records a
// caller (or a previous run's Result) still holds.
func (c *Checker) Violations() []Violation {
	return append([]Violation(nil), c.violations...)
}

// Strings renders the retained violations, appending a self-describing
// truncation marker when the retention cap was hit.
func (c *Checker) Strings() []string {
	if c.total == 0 {
		return nil
	}
	out := make([]string, 0, len(c.violations)+1)
	for _, v := range c.violations {
		out = append(out, v.String())
	}
	if c.total > len(c.violations) {
		out = append(out, fmt.Sprintf("sccheck: ... and %d more violations (cap reached)", c.total-len(c.violations)))
	}
	return out
}

// Squash and PreArb check nothing: SC is judged at commits and accesses.
func (c *Checker) Squash(int, int, int, bool) {}
func (c *Checker) PreArb(int)                 {}

// Chunks returns how many committed chunks were checked.
func (c *Checker) Chunks() int { return c.chunks }

// Accesses returns how many logged accesses were checked (chunk log entries
// plus conventional architectural accesses).
func (c *Checker) Accesses() uint64 { return c.accesses }
