// Package explore exhaustively enumerates the reachable outcomes of small
// litmus programs under three operational memory models, turning the
// simulator's sampled confidence ("no seed ever produced a non-SC
// outcome") into proved confidence ("no interleaving of this program
// can"), in the spirit of Qadeer's "Verifying Sequential Consistency by
// Model Checking".
//
// Three models are explored:
//
//   - ModelSC: the SC reference — individual operations interleave
//     atomically. Its outcome set IS the definition of the sequentially
//     consistent outcomes of the program.
//   - ModelBulk: BulkSC's chunk-atomic semantics — every partition of
//     each thread's operations into contiguous chunks is enumerated, and
//     chunks interleave atomically with same-chunk store-to-load
//     forwarding. Commit atomicity means chunking can only REMOVE
//     interleavings, never add them, so the proof obligation is
//     outcomes(Bulk) ⊆ outcomes(SC) — equality in practice, since
//     singleton chunks recover every SC interleaving.
//   - ModelRC: a release-consistency-style machine with per-thread FIFO
//     store buffers and own-store forwarding. Loads may perform while
//     older stores sit buffered, which is exactly the store→load
//     relaxation that makes SB's forbidden outcome reachable.
//
// # Partial-order reduction
//
// Exploration runs a depth-first search with sleep sets (Godefroid).
// Two transitions are independent when they belong to different threads
// and their memory footprints do not conflict (no shared word with at
// least one store); same-thread transitions are always dependent, as are
// a thread's issue and drain steps. After exploring transition t from a
// state, t is added to the sleep set of the siblings explored after it,
// and a successor's sleep set keeps only the entries independent of the
// transition taken — so any execution that merely commutes independent
// steps of an already-explored trace is pruned. Sleep-set POR preserves
// ALL terminal states of an acyclic system (every Mazurkiewicz trace
// keeps at least one representative interleaving), and the programs here
// are finite straight-line code, so the outcome set is exact: the tests
// assert POR-on and POR-off enumerate identical outcomes while visiting
// far fewer states.
//
// Each terminal trace can also be re-serialized as an internal/history
// record stream and pushed through the offline checker (internal/
// history/gk), closing the loop: the enumerator proves the model's
// outcome set, the checker independently verifies each enumerated
// execution's claimed order.
package explore

import (
	"fmt"
	"sort"
	"strings"

	"bulksc/internal/history"
)

// Op is one memory operation of a litmus thread. Val is the value written
// for stores and ignored for loads (the model computes what a load
// observes).
type Op struct {
	Store bool
	Addr  uint64
	Val   uint64
}

// Program is a straight-line litmus program: one op list per thread.
type Program struct {
	Name    string
	Threads [][]Op
}

// Model selects the operational semantics to enumerate.
type Model int

const (
	// ModelSC interleaves individual operations atomically.
	ModelSC Model = iota
	// ModelBulk interleaves chunks atomically, over every chunking.
	ModelBulk
	// ModelRC adds per-thread FIFO store buffers with forwarding.
	ModelRC
)

func (m Model) String() string {
	return [...]string{"SC", "BulkSC", "RC"}[m]
}

// Outcome is the observable result of one terminal execution: the values
// each thread's loads observed, in program order.
type Outcome struct {
	Loads [][]uint64
}

// Key renders the outcome canonically; equal outcomes render equally.
func (o Outcome) Key() string {
	var b strings.Builder
	for t, ls := range o.Loads {
		if t > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%v", t, ls)
	}
	return b.String()
}

// Options tune Explore.
type Options struct {
	// POR disables sleep-set pruning when false... it is ON by default
	// only through DefaultOptions; the zero Options explores the full
	// interleaving tree (the cross-validation baseline).
	POR bool
	// MaxStates bounds visited states; 0 = DefaultMaxStates.
	MaxStates int
	// OnHistory, when set, receives each terminal execution re-serialized
	// as an internal/history record stream — chunk records (claimed order
	// = execution order) for SC/Bulk, access records (perform order, with
	// buffered-forward loads marked) for RC. A returned error aborts the
	// enumeration. This is the bridge to the offline checker: the tests
	// push every enumerated execution through gk.Check.
	OnHistory func(*history.History) error
}

// DefaultMaxStates bounds exploration; litmus programs sit orders of
// magnitude below it.
const DefaultMaxStates = 4 << 20

// DefaultOptions is the production configuration: POR on.
func DefaultOptions() Options { return Options{POR: true} }

// Result is one enumeration's findings.
type Result struct {
	// Outcomes holds every reachable outcome, sorted by Key.
	Outcomes []Outcome
	// States counts visited states (after pruning); Traces counts
	// terminal executions reached.
	States, Traces int
	// Chunkings counts the per-thread chunk partitions enumerated
	// (ModelBulk only; 1 otherwise).
	Chunkings int
}

// Has reports whether the result contains an outcome with the given key.
func (r *Result) Has(key string) bool {
	for _, o := range r.Outcomes {
		if o.Key() == key {
			return true
		}
	}
	return false
}

// Keys returns the sorted outcome keys.
func (r *Result) Keys() []string {
	out := make([]string, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = o.Key()
	}
	return out
}

// SubsetOf reports whether every outcome of r also occurs in other — the
// "model is no weaker than" relation (outcomes(Bulk) ⊆ outcomes(SC) is
// the SC proof obligation).
func (r *Result) SubsetOf(other *Result) bool {
	have := map[string]bool{}
	for _, o := range other.Outcomes {
		have[o.Key()] = true
	}
	for _, o := range r.Outcomes {
		if !have[o.Key()] {
			return false
		}
	}
	return true
}

// Explore enumerates every reachable outcome of prog under model.
func Explore(prog *Program, model Model, opt Options) (*Result, error) {
	if opt.MaxStates <= 0 {
		opt.MaxStates = DefaultMaxStates
	}
	res := &Result{}
	seen := map[string]Outcome{}

	switch model {
	case ModelSC, ModelBulk:
		// One enumeration per chunking. ModelSC is the singleton chunking.
		err := forEachChunking(prog, model, func(units [][][]Op) error {
			res.Chunkings++
			e := &enumerator{opt: opt, res: res, seen: seen, units: units}
			return e.run()
		})
		if err != nil {
			return nil, err
		}
	case ModelRC:
		res.Chunkings = 1
		e := &enumerator{opt: opt, res: res, seen: seen, rc: true}
		e.units = make([][][]Op, len(prog.Threads))
		for t, ops := range prog.Threads {
			e.units[t] = make([][]Op, len(ops))
			for i := range ops {
				e.units[t][i] = ops[i : i+1]
			}
		}
		if err := e.run(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("explore: unknown model %d", int(model))
	}

	keys := make([]string, 0, len(seen))
	for k := range seen { // collected below and sorted: deterministic output
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		res.Outcomes = append(res.Outcomes, seen[k])
	}
	return res, nil
}

// forEachChunking enumerates every partition of each thread's ops into
// contiguous chunks (2^(n-1) compositions per thread) and calls fn with
// the per-thread unit lists. ModelSC uses only the all-singletons
// partition.
func forEachChunking(prog *Program, model Model, fn func([][][]Op) error) error {
	units := make([][][]Op, len(prog.Threads))
	var rec func(t int) error
	rec = func(t int) error {
		if t == len(prog.Threads) {
			return fn(units)
		}
		ops := prog.Threads[t]
		n := len(ops)
		if model == ModelSC {
			us := make([][]Op, n)
			for i := range ops {
				us[i] = ops[i : i+1]
			}
			units[t] = us
			return rec(t + 1)
		}
		if n > 16 {
			return fmt.Errorf("explore: thread %d has %d ops; chunk enumeration caps at 16", t, n)
		}
		if n == 0 {
			units[t] = nil
			return rec(t + 1)
		}
		for cuts := 0; cuts < 1<<(n-1); cuts++ {
			var us [][]Op
			start := 0
			for i := 1; i < n; i++ {
				if cuts&(1<<(i-1)) != 0 {
					us = append(us, ops[start:i])
					start = i
				}
			}
			us = append(us, ops[start:])
			units[t] = us
			if err := rec(t + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// trans identifies one transition for the sleep-set machinery: a thread's
// next atomic unit, or (RC) the drain of its oldest buffered store.
// Same-thread transitions are always dependent, so the pair (thread,
// drain) is a sound identity: a sleeping entry survives only across
// independent — hence other-thread — steps, which leave the entry's
// referent (that thread's next unit / oldest buffer slot) untouched.
type trans struct {
	thread int
	drain  bool
}

// bufEntry is one buffered store in an RC thread's FIFO, tagged with its
// program-order index for history building.
type bufEntry struct {
	addr, val uint64
	po        uint64
}

// step records one executed transition for history reconstruction.
type step struct {
	proc  int
	drain bool
	// ops carries the unit's concrete accesses with OBSERVED load values.
	ops []Op
	// po is the program-order index of the single op (RC issue/drain).
	po uint64
	// fwd marks an RC load served from the thread's own buffer.
	fwd bool
}

// enumerator runs one sleep-set DFS over a fixed unit structure.
type enumerator struct {
	opt   Options
	res   *Result
	seen  map[string]Outcome
	units [][][]Op
	rc    bool

	mem   map[uint64]uint64
	pc    []int
	done  []int // ops completed per thread (for RC po indices)
	loads [][]uint64
	bufs  [][]bufEntry
	trace []step
}

func (e *enumerator) run() error {
	e.mem = map[uint64]uint64{}
	e.pc = make([]int, len(e.units))
	e.done = make([]int, len(e.units))
	e.loads = make([][]uint64, len(e.units))
	e.bufs = make([][]bufEntry, len(e.units))
	e.trace = e.trace[:0]
	return e.dfs(nil)
}

// footprint returns t's access set in the current state.
func (e *enumerator) footprint(t trans) []Op {
	if t.drain {
		b := e.bufs[t.thread][0]
		return []Op{{Store: true, Addr: b.addr, Val: b.val}}
	}
	return e.units[t.thread][e.pc[t.thread]]
}

// independent implements the Mazurkiewicz independence relation:
// different threads, no conflicting word.
func (e *enumerator) independent(a, b trans) bool {
	if a.thread == b.thread {
		return false
	}
	fa, fb := e.footprint(a), e.footprint(b)
	for _, x := range fa {
		for _, y := range fb {
			if x.Addr == y.Addr && (x.Store || y.Store) {
				return false
			}
		}
	}
	return true
}

// enabled lists the transitions runnable from the current state, in
// deterministic order (thread ascending, issue before drain).
func (e *enumerator) enabled() []trans {
	var out []trans
	for t := range e.units {
		if e.pc[t] < len(e.units[t]) {
			out = append(out, trans{thread: t})
		}
		if e.rc && len(e.bufs[t]) > 0 {
			out = append(out, trans{thread: t, drain: true})
		}
	}
	return out
}

// apply executes t, returning an undo closure. Loads record their
// observed values; RC stores enter the FIFO and publish on drain.
func (e *enumerator) apply(t trans) func() {
	th := t.thread
	if t.drain {
		b := e.bufs[th][0]
		e.bufs[th] = e.bufs[th][1:]
		old, had := e.mem[b.addr]
		e.mem[b.addr] = b.val
		e.trace = append(e.trace, step{
			proc: th, drain: true, po: b.po,
			ops: []Op{{Store: true, Addr: b.addr, Val: b.val}},
		})
		bufs := e.bufs[th]
		return func() {
			e.trace = e.trace[:len(e.trace)-1]
			if had {
				e.mem[b.addr] = old
			} else {
				delete(e.mem, b.addr)
			}
			e.bufs[th] = append([]bufEntry{b}, bufs...)
		}
	}

	unit := e.units[th][e.pc[th]]
	e.pc[th]++
	doneBefore := e.done[th]
	loadsBefore := len(e.loads[th])
	bufsBefore := len(e.bufs[th])
	type memUndo struct {
		addr, val uint64
		had       bool
	}
	var undos []memUndo
	var wbuf map[uint64]uint64 // the chunk's own buffered stores
	rec := step{proc: th, ops: make([]Op, 0, len(unit))}
	for _, op := range unit {
		e.done[th]++
		po := uint64(e.done[th])
		if op.Store {
			if e.rc {
				e.bufs[th] = append(e.bufs[th], bufEntry{addr: op.Addr, val: op.Val, po: po})
			} else {
				if wbuf == nil {
					wbuf = map[uint64]uint64{}
				}
				wbuf[op.Addr] = op.Val
			}
			rec.ops = append(rec.ops, op)
			continue
		}
		var v uint64
		var fwd bool
		switch {
		case e.rc:
			// Newest matching buffered store forwards; else memory.
			v, fwd = e.mem[op.Addr], false
			for i := len(e.bufs[th]) - 1; i >= 0; i-- {
				if e.bufs[th][i].addr == op.Addr {
					v, fwd = e.bufs[th][i].val, true
					break
				}
			}
		default:
			if ov, ok := wbuf[op.Addr]; ok {
				v, fwd = ov, true
			} else {
				v = e.mem[op.Addr]
			}
		}
		e.loads[th] = append(e.loads[th], v)
		rec.ops = append(rec.ops, Op{Addr: op.Addr, Val: v})
		rec.po, rec.fwd = po, fwd
	}
	// Chunk commit: publish the buffered stores through the ops walk
	// (last store per word wins), keeping publication deterministic.
	if !e.rc {
		for _, op := range unit {
			if op.Store {
				old, had := e.mem[op.Addr]
				undos = append(undos, memUndo{op.Addr, old, had})
				e.mem[op.Addr] = op.Val
			}
		}
	}
	e.trace = append(e.trace, rec)
	return func() {
		e.trace = e.trace[:len(e.trace)-1]
		for i := len(undos) - 1; i >= 0; i-- {
			if undos[i].had {
				e.mem[undos[i].addr] = undos[i].val
			} else {
				delete(e.mem, undos[i].addr)
			}
		}
		e.bufs[th] = e.bufs[th][:bufsBefore]
		e.loads[th] = e.loads[th][:loadsBefore]
		e.done[th] = doneBefore
		e.pc[th]--
	}
}

func (e *enumerator) terminal() bool {
	for t := range e.units {
		if e.pc[t] < len(e.units[t]) || len(e.bufs[t]) > 0 {
			return false
		}
	}
	return true
}

func (e *enumerator) record() error {
	e.res.Traces++
	o := Outcome{Loads: make([][]uint64, len(e.loads))}
	for t, ls := range e.loads {
		o.Loads[t] = append([]uint64(nil), ls...)
	}
	e.seen[o.Key()] = o
	if e.opt.OnHistory != nil {
		return e.opt.OnHistory(e.buildHistory())
	}
	return nil
}

// buildHistory re-serializes the current terminal trace as a history:
// chunk records with claimed order = execution order for the chunk-atomic
// models, access records in perform order for RC.
func (e *enumerator) buildHistory() *history.History {
	h := &history.History{Header: history.Header{
		Kind: history.KindHeader, Version: history.Version, Format: history.Format,
		Procs: len(e.units),
	}}
	if e.rc {
		h.Header.Model = "RC"
		for _, s := range e.trace {
			if !s.drain && s.ops[0].Store {
				continue // an RC store performs at its drain step
			}
			h.Accesses = append(h.Accesses, history.AccessRec{
				Kind: history.KindAccess, Proc: s.proc, PO: s.po,
				Store: s.drain, Addr: s.ops[0].Addr, Val: s.ops[0].Val, Fwd: s.fwd,
			})
		}
		return h
	}
	h.Header.Model = "BulkSC"
	seq := make([]uint64, len(e.units))
	for i, s := range e.trace {
		seq[s.proc]++
		rec := history.ChunkRec{
			Kind: history.KindChunk, Proc: s.proc, Seq: seq[s.proc],
			Order: uint64(i + 1), Ops: make([]history.Op, len(s.ops)),
		}
		for j, op := range s.ops {
			rec.Ops[j] = history.Op{Store: op.Store, Addr: op.Addr, Val: op.Val}
		}
		h.Chunks = append(h.Chunks, rec)
	}
	return h
}

func (e *enumerator) dfs(sleep []trans) error {
	e.res.States++
	if e.res.States > e.opt.MaxStates {
		return fmt.Errorf("explore: state bound %d exceeded", e.opt.MaxStates)
	}
	if e.terminal() {
		return e.record()
	}
	en := e.enabled()
	var explored []trans
	for _, t := range en {
		if e.opt.POR && inSet(sleep, t) {
			continue
		}
		// Successor sleep set: prior sleepers and already-explored
		// siblings that are independent of t.
		var next []trans
		if e.opt.POR {
			for _, s := range sleep {
				if e.independent(s, t) {
					next = append(next, s)
				}
			}
			for _, s := range explored {
				if e.independent(s, t) {
					next = append(next, s)
				}
			}
		}
		undo := e.apply(t)
		err := e.dfs(next)
		undo()
		if err != nil {
			return err
		}
		explored = append(explored, t)
	}
	return nil
}

func inSet(set []trans, t trans) bool {
	for _, s := range set {
		if s == t {
			return true
		}
	}
	return false
}
