// Package gk is the offline sequential-consistency checker over portable
// histories (internal/history), in the tradition of Gibbons & Korach's
// "Testing Shared Memories" (SIAM J. Comput. 1997).
//
// G&K prove that deciding whether an arbitrary history has *some*
// sequentially consistent explanation (VSC) is NP-complete, but that the
// problem becomes tractable when the implementation names its own
// serialization — the "verifying a given total order" variants. This
// package covers both sides:
//
//   - Check verifies a *claimed* witness order: for chunked histories the
//     global commit order the arbiter assigned, for conventional access
//     histories the perform order with per-processor program-order
//     indices. It owns no obligation code: it pushes the history's records
//     into a fresh internal/sccheck Checker — the online witness checker
//     the machine feeds at its commit and perform instants — so online and
//     offline verdicts, counts and violation text are identical by
//     construction. Linear time, O(footprint) state.
//
//   - Search decides VSC for histories with NO trusted order, by
//     backtracking over the per-processor frontiers in the style of the
//     G&K algorithm: at each step a processor's next atomic unit (chunk,
//     or single access) is runnable iff every one of its reads is
//     explained by current memory or its own earlier writes; runnable
//     units are explored depth-first with memoization on (frontier,
//     memory) states and an explicit state bound, since the general
//     problem is NP-complete. A history that Check accepts is always
//     Search-serializable (the claimed order is the witness); Search
//     exists for external histories that carry no order claim.
//
// Unlike the machine's witness — which dies with the process — this
// package consumes serialized NDJSON, so a history can be re-examined,
// shared, or checked against a stronger oracle long after the run that
// produced it (cmd/scchk is the CLI).
package gk

import (
	"fmt"
	"sort"

	"bulksc/internal/history"
	"bulksc/internal/mem"
	"bulksc/internal/sccheck"
)

// Options tune Check.
type Options struct {
	// MaxViolations caps retained records; 0 means
	// sccheck.DefaultMaxViolations.
	MaxViolations int
}

// Check verifies h's claimed serialization and returns the checker holding
// the verdict. Chunk records are checked against the global commit order
// they carry; access records against their perform (file) order. h must
// meet what history.Read guarantees: one record shape, and processor ids
// in [0, history.MaxProcs).
func Check(h *history.History, opt Options) *sccheck.Checker {
	c := sccheck.New()
	c.MaxViolations = opt.MaxViolations
	for i := range h.Chunks {
		ch := &h.Chunks[i]
		c.BeginChunk(ch.Proc, ch.Seq, ch.Order)
		for _, op := range ch.Ops {
			c.ChunkOp(op.Store, mem.Addr(op.Addr), op.Val)
		}
		c.EndChunk()
	}
	for i := range h.Accesses {
		a := &h.Accesses[i]
		c.Access(a.Proc, a.PO, a.Store, mem.Addr(a.Addr), a.Val, a.Fwd)
	}
	return c
}

// ---------------------------------------------------------------------------
// Serialization search (the NP-complete VSC side)
// ---------------------------------------------------------------------------

// Step identifies one atomic unit in a found serialization: processor and
// the unit's index within that processor's program order.
type Step struct {
	Proc int
	Unit int
}

// ErrStateBound reports that Search gave up before deciding: the history
// may or may not be serializable.
var ErrStateBound = fmt.Errorf("gk: state bound exceeded before a verdict")

// ErrNotSerializable reports an exhausted search: NO interleaving of the
// history's atomic units explains every read.
var ErrNotSerializable = fmt.Errorf("gk: history has no sequentially consistent serialization")

// DefaultMaxStates bounds Search's explored state count.
const DefaultMaxStates = 1 << 20

// unit is one atomic block of operations in a processor's program order.
type unit struct {
	ops []history.Op
}

// Search decides whether some interleaving of h's atomic units — chunks
// for chunked histories, single accesses for conventional ones — explains
// every read, ignoring any claimed commit order. It returns a witness
// serialization when one exists. maxStates bounds the explored states
// (0 = DefaultMaxStates); the bound matters because VSC is NP-complete.
// Like Check, it expects one record shape, as every history.Read result
// holds.
func Search(h *history.History, maxStates int) ([]Step, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}

	// Build the per-processor unit lists in program order. Chunk records
	// are written in each processor's commit order, which is its program
	// order. Access records are written when an access performs, so a
	// load may precede an older buffered store in the file: accesses are
	// ordered by PO (stable, so duplicate PO values keep file order).
	perProc := map[int][]unit{}
	var procIDs []int
	addUnit := func(proc int, u unit) {
		if _, ok := perProc[proc]; !ok {
			procIDs = append(procIDs, proc)
		}
		perProc[proc] = append(perProc[proc], u)
	}
	for i := range h.Chunks {
		addUnit(h.Chunks[i].Proc, unit{ops: h.Chunks[i].Ops})
	}
	accs := make([]*history.AccessRec, 0, len(h.Accesses))
	for i := range h.Accesses {
		ac := &h.Accesses[i]
		if !ac.Store && ac.Fwd {
			// A buffered-forward load is exempt from the coherence
			// obligation; as a search unit it constrains nothing.
			continue
		}
		accs = append(accs, ac)
	}
	sort.SliceStable(accs, func(i, j int) bool { return accs[i].PO < accs[j].PO })
	for _, ac := range accs {
		addUnit(ac.Proc, unit{ops: []history.Op{{Store: ac.Store, Addr: ac.Addr, Val: ac.Val}}})
	}
	sort.Ints(procIDs)
	units := make([][]unit, len(procIDs))
	procOf := make([]int, len(procIDs))
	for i, p := range procIDs {
		units[i] = perProc[p]
		procOf[i] = p
	}

	// The address universe, fixed up front, gives every state a
	// deterministic memory fingerprint without ranging over maps.
	addrSet := map[mem.Addr]bool{}
	var addrs []mem.Addr
	for i := range units {
		for j := range units[i] {
			for _, op := range units[i][j].ops {
				a := mem.Addr(op.Addr).Align()
				if !addrSet[a] {
					addrSet[a] = true
					addrs = append(addrs, a)
				}
			}
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	s := &searcher{
		units: units, procOf: procOf, addrs: addrs,
		mem: map[mem.Addr]uint64{}, visited: map[string]bool{},
		maxStates: maxStates,
	}
	s.pos = make([]int, len(units))
	total := 0
	for i := range units {
		total += len(units[i])
	}
	if s.dfs(total) {
		// Steps were appended in reverse on unwind; restore forward order.
		for i, j := 0, len(s.order)-1; i < j; i, j = i+1, j-1 {
			s.order[i], s.order[j] = s.order[j], s.order[i]
		}
		return s.order, nil
	}
	if s.bounded {
		return nil, ErrStateBound
	}
	return nil, ErrNotSerializable
}

type searcher struct {
	units  [][]unit
	procOf []int
	addrs  []mem.Addr
	pos    []int
	mem    map[mem.Addr]uint64
	// visited memoizes dead (frontier, memory) states: re-entering one
	// cannot succeed, which is what keeps the common (serializable or
	// shallowly-unserializable) cases polynomial in practice.
	visited   map[string]bool
	states    int
	maxStates int
	bounded   bool
	order     []Step
}

// key fingerprints the current (frontier, memory) state deterministically
// via the precomputed sorted address universe.
func (s *searcher) key() string {
	buf := make([]byte, 0, len(s.pos)*3+len(s.addrs)*9)
	for _, p := range s.pos {
		buf = append(buf, byte(p), byte(p>>8), '|')
	}
	for _, a := range s.addrs {
		v := s.mem[a]
		for k := 0; k < 8; k++ {
			buf = append(buf, byte(v>>(8*k)))
		}
		buf = append(buf, ';')
	}
	return string(buf)
}

// runnable replays unit u against current memory: every read must be
// explained by memory or the unit's own earlier writes (the G&K
// admissibility condition). On success it returns the unit's write-back
// list (addr, val) in program order.
func (s *searcher) runnable(u *unit) ([]history.Op, bool) {
	// own holds the unit's earlier writes, seen its pinned first reads.
	var own, seen map[mem.Addr]uint64
	for _, op := range u.ops {
		a := mem.Addr(op.Addr).Align()
		if op.Store {
			if own == nil {
				own = map[mem.Addr]uint64{}
			}
			own[a] = op.Val
			continue
		}
		if v, ok := own[a]; ok {
			if op.Val != v {
				return nil, false
			}
			continue
		}
		if v, ok := seen[a]; ok {
			if op.Val != v {
				return nil, false
			}
			continue
		}
		if op.Val != s.mem[a] {
			return nil, false
		}
		if seen == nil {
			seen = map[mem.Addr]uint64{}
		}
		seen[a] = op.Val
	}
	var writes []history.Op
	for _, op := range u.ops {
		if op.Store {
			writes = append(writes, op)
		}
	}
	return writes, true
}

func (s *searcher) dfs(remaining int) bool {
	if remaining == 0 {
		return true
	}
	if s.states >= s.maxStates {
		s.bounded = true
		return false
	}
	s.states++
	k := s.key()
	if s.visited[k] {
		return false
	}
	for i := range s.units {
		if s.pos[i] >= len(s.units[i]) {
			continue
		}
		u := &s.units[i][s.pos[i]]
		writes, ok := s.runnable(u)
		if !ok {
			continue
		}
		// Apply: advance the frontier and publish the unit's writes,
		// remembering displaced values for the undo.
		type undo struct {
			addr mem.Addr
			val  uint64
			had  bool
		}
		var undos []undo
		for _, w := range writes {
			a := mem.Addr(w.Addr).Align()
			old, had := s.mem[a]
			undos = append(undos, undo{a, old, had})
			s.mem[a] = w.Val
		}
		stepUnit := s.pos[i]
		s.pos[i]++
		if s.dfs(remaining - 1) {
			s.order = append(s.order, Step{Proc: s.procOf[i], Unit: stepUnit})
			return true
		}
		s.pos[i]--
		for j := len(undos) - 1; j >= 0; j-- {
			if undos[j].had {
				s.mem[undos[j].addr] = undos[j].val
			} else {
				delete(s.mem, undos[j].addr)
			}
		}
		if s.bounded {
			return false
		}
	}
	s.visited[k] = true
	return false
}
