package gk

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"bulksc/internal/history"
	"bulksc/internal/mem"
	"bulksc/internal/sccheck"
)

// ck builds a chunk record tersely: ops alternate (store, addr, val) triples.
func ck(proc int, seq, order uint64, ops ...history.Op) history.ChunkRec {
	return history.ChunkRec{Kind: history.KindChunk, Proc: proc, Seq: seq, Order: order, Ops: ops}
}

func st(addr, val uint64) history.Op { return history.Op{Store: true, Addr: addr, Val: val} }
func ld(addr, val uint64) history.Op { return history.Op{Addr: addr, Val: val} }

func goodChunkHistory() *history.History {
	return &history.History{
		Chunks: []history.ChunkRec{
			ck(0, 1, 1, st(64, 7), ld(64, 7)), // forwarding within the chunk
			ck(1, 1, 2, ld(64, 7), ld(64, 7)), // atomic re-read
			ck(0, 2, 3, ld(64, 7), st(72, 9)), // sees proc 1's view, writes elsewhere
			ck(1, 2, 5, ld(72, 9), ld(0, 0)),  // order gap (4 squashed) is legal
		},
	}
}

func TestCheckCleanChunks(t *testing.T) {
	r := Check(goodChunkHistory(), Options{})
	if !r.Ok() {
		t.Fatalf("clean history flagged: %v", r.Strings())
	}
	if r.Chunks() != 4 || r.Accesses() != 8 {
		t.Fatalf("counts: chunks=%d accesses=%d", r.Chunks(), r.Accesses())
	}
	if r.Strings() != nil {
		t.Fatalf("clean report should render no strings")
	}
}

func wantKind(t *testing.T, h *history.History, k sccheck.Kind) *sccheck.Checker {
	t.Helper()
	r := Check(h, Options{})
	if r.Ok() {
		t.Fatalf("mutation not caught, expected %v", k)
	}
	vs := r.Violations()
	for _, v := range vs {
		if v.Kind == k {
			return r
		}
	}
	t.Fatalf("expected a %v violation, got %v", k, r.Strings())
	return nil
}

func TestMutationCorruptedValue(t *testing.T) {
	h := goodChunkHistory()
	h.Chunks[1].Ops[0].Val = 999 // load observes a value nobody stored
	wantKind(t, h, sccheck.KindCoherence)
}

func TestMutationSwappedCommitOrder(t *testing.T) {
	h := goodChunkHistory()
	h.Chunks[1].Order, h.Chunks[2].Order = h.Chunks[2].Order, h.Chunks[1].Order
	wantKind(t, h, sccheck.KindTotalOrder)
}

func TestMutationPerProcSeqRegression(t *testing.T) {
	h := goodChunkHistory()
	h.Chunks[2].Seq = 1 // proc 0 commits chunk #1 twice
	wantKind(t, h, sccheck.KindTotalOrder)
}

func TestMutationBrokenAtomicity(t *testing.T) {
	h := goodChunkHistory()
	h.Chunks[1].Ops[1].Val = 3 // second same-chunk read of 64 diverges
	wantKind(t, h, sccheck.KindAtomicity)
}

func TestMutationBrokenForwarding(t *testing.T) {
	h := goodChunkHistory()
	h.Chunks[0].Ops[1].Val = 3 // load after own store sees a stale value
	wantKind(t, h, sccheck.KindForwarding)
}

func TestCheckAccessHistory(t *testing.T) {
	h := &history.History{Accesses: []history.AccessRec{
		{Proc: 0, PO: 1, Store: true, Addr: 64, Val: 1},
		{Proc: 0, PO: 2, Store: false, Addr: 8, Val: 11, Fwd: true}, // fwd loads are exempt
		{Proc: 1, PO: 1, Store: false, Addr: 64, Val: 1},
		{Proc: 1, PO: 2, Store: true, Addr: 64, Val: 2},
		{Proc: 0, PO: 3, Store: false, Addr: 64, Val: 2},
	}}
	if r := Check(h, Options{}); !r.Ok() {
		t.Fatalf("clean access history flagged: %v", r.Strings())
	}

	h.Accesses[4].Val = 1 // stale read past proc 1's store
	wantKind(t, h, sccheck.KindCoherence)

	h.Accesses[4].Val = 2
	h.Accesses[4].PO = 1 // proc 0 performs out of program order
	wantKind(t, h, sccheck.KindProgramOrder)
}

func TestCapMarker(t *testing.T) {
	h := &history.History{}
	for i := 0; i < 10; i++ {
		// Every chunk claims order 1: 9 total-order violations.
		h.Chunks = append(h.Chunks, ck(0, uint64(i+1), 1))
	}
	r := Check(h, Options{MaxViolations: 3})
	// Each chunk after the first trips both the global and the per-proc
	// order obligations (seqs do increase): 2 × 9 = 18 total.
	if r.Total() != 18 {
		t.Fatalf("Total() = %d, want 18", r.Total())
	}
	if got := len(r.Violations()); got != 3 {
		t.Fatalf("retained %d violations, want 3", got)
	}
	s := r.Strings()
	if len(s) != 4 {
		t.Fatalf("Strings() len = %d, want 3 + marker", len(s))
	}
	last := s[len(s)-1]
	if !strings.Contains(last, "more violations") || !strings.Contains(last, "cap reached") {
		t.Fatalf("truncation marker missing: %q", last)
	}
}

// TestFirstAccessPOZero pins the program-order baseline: a processor's
// first access sets it, whatever its index, so a history whose POs start
// at 0 checks clean — online through Access and offline through Check.
func TestFirstAccessPOZero(t *testing.T) {
	c := sccheck.New()
	c.Access(0, 0, true, mem.Addr(64), 1, false)
	c.Access(0, 1, false, mem.Addr(64), 1, false)
	if !c.Ok() {
		t.Fatalf("Access flagged a first access with po 0: %v", c.Strings())
	}

	h, err := history.Read(strings.NewReader(
		`{"kind":"access","proc":0,"po":0,"store":true,"addr":64,"val":1}
{"kind":"access","proc":0,"po":1,"addr":64,"val":1}
`))
	if err != nil {
		t.Fatal(err)
	}
	if r := Check(h, Options{}); !r.Ok() {
		t.Fatalf("Check flagged a first access with po 0: %v", r.Strings())
	}

	// The baseline still binds what follows it.
	h.Accesses[1].PO = 0
	wantKind(t, h, sccheck.KindProgramOrder)
}

// --- Search -----------------------------------------------------------------

func TestSearchSerializableAccesses(t *testing.T) {
	// Message passing with both observations: clearly SC.
	h := &history.History{Accesses: []history.AccessRec{
		{Proc: 0, PO: 1, Store: true, Addr: 0, Val: 1},
		{Proc: 0, PO: 2, Store: true, Addr: 8, Val: 1},
		{Proc: 1, PO: 1, Store: false, Addr: 8, Val: 1},
		{Proc: 1, PO: 2, Store: false, Addr: 0, Val: 1},
	}}
	order, err := Search(h, 0)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(order) != 4 {
		t.Fatalf("serialization has %d steps, want 4", len(order))
	}
}

func TestSearchForbiddenSB(t *testing.T) {
	// Store buffering's forbidden outcome r1=r2=0: no SC interleaving.
	h := &history.History{Accesses: []history.AccessRec{
		{Proc: 0, PO: 1, Store: true, Addr: 0, Val: 1},
		{Proc: 0, PO: 2, Store: false, Addr: 8, Val: 0},
		{Proc: 1, PO: 1, Store: true, Addr: 8, Val: 1},
		{Proc: 1, PO: 2, Store: false, Addr: 0, Val: 0},
	}}
	if _, err := Search(h, 0); !errors.Is(err, ErrNotSerializable) {
		t.Fatalf("Search = %v, want ErrNotSerializable", err)
	}
}

func TestSearchFollowsProgramOrder(t *testing.T) {
	// Store buffering as an RC machine exports it: proc 0's load performs
	// before its older buffered store, so the load's record comes first.
	// Taken in file order the history serializes (proc 0 loads, proc 1
	// runs, proc 0 stores); in program order it is SB's forbidden outcome.
	h := &history.History{Accesses: []history.AccessRec{
		{Proc: 0, PO: 2, Store: false, Addr: 8, Val: 0},
		{Proc: 1, PO: 1, Store: true, Addr: 8, Val: 1},
		{Proc: 1, PO: 2, Store: false, Addr: 0, Val: 0},
		{Proc: 0, PO: 1, Store: true, Addr: 0, Val: 1},
	}}
	if _, err := Search(h, 0); !errors.Is(err, ErrNotSerializable) {
		t.Fatalf("Search = %v, want ErrNotSerializable", err)
	}
}

func TestSearchChunksIgnoresClaimedOrder(t *testing.T) {
	// The claimed orders are garbage (all zero), but SOME serialization
	// exists; Search must find it while Check rejects the claim.
	h := goodChunkHistory()
	for i := range h.Chunks {
		h.Chunks[i].Order = 0
	}
	if r := Check(h, Options{}); r.Ok() {
		t.Fatal("Check accepted zeroed orders")
	}
	order, err := Search(h, 0)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(order) != 4 {
		t.Fatalf("serialization has %d steps, want 4", len(order))
	}
	// Per-processor steps must respect program order.
	next := map[int]int{}
	for _, s := range order {
		if s.Unit != next[s.Proc] {
			t.Fatalf("step %+v out of program order (want unit %d)", s, next[s.Proc])
		}
		next[s.Proc]++
	}
}

func TestSearchAtomicityMatters(t *testing.T) {
	// Unchunked these reads could straddle the writer; as one atomic
	// chunk observing 0 then (after the writer's chunk) still 0 while a
	// sibling read saw 1, no chunk interleaving works.
	h := &history.History{Chunks: []history.ChunkRec{
		ck(0, 1, 1, ld(0, 0), ld(0, 1)), // re-read diverges inside one chunk
		ck(1, 1, 2, st(0, 1)),
	}}
	if _, err := Search(h, 0); !errors.Is(err, ErrNotSerializable) {
		t.Fatalf("Search = %v, want ErrNotSerializable", err)
	}
}

func TestSearchStateBound(t *testing.T) {
	h := &history.History{Accesses: []history.AccessRec{
		{Proc: 0, PO: 1, Store: true, Addr: 0, Val: 1},
		{Proc: 0, PO: 2, Store: false, Addr: 8, Val: 0},
		{Proc: 1, PO: 1, Store: true, Addr: 8, Val: 1},
		{Proc: 1, PO: 2, Store: false, Addr: 0, Val: 0},
	}}
	if _, err := Search(h, 1); !errors.Is(err, ErrStateBound) {
		t.Fatalf("Search = %v, want ErrStateBound", err)
	}
}

// fuzzCap is the retention cap FuzzCheck checks under: small, so the
// corpus exercises the truncation marker.
const fuzzCap = 3

// FuzzCheck runs Check over whatever history.Read accepts. Check must not
// panic, its counts must match the history's, its cap must hold, and
// whenever it accepts the claimed order, Search — an independent algorithm
// that ignores the claim — must not call the history unserializable.
func FuzzCheck(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := history.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		r := Check(h, Options{MaxViolations: fuzzCap})
		if r.Chunks() != len(h.Chunks) || r.Accesses() != uint64(h.Ops()) {
			t.Fatalf("checked %d chunks / %d ops, history has %d / %d",
				r.Chunks(), r.Accesses(), len(h.Chunks), h.Ops())
		}
		if r.Ok() != (r.Total() == 0) {
			t.Fatalf("Ok() = %v with Total() = %d", r.Ok(), r.Total())
		}
		if n := len(r.Strings()); n > fuzzCap+1 {
			t.Fatalf("Strings() has %d lines, cap %d plus marker", n, fuzzCap)
		}
		if !r.Ok() {
			return
		}
		if _, err := Search(h, 1000); errors.Is(err, ErrNotSerializable) {
			t.Fatalf("Check accepted the claimed order but Search found no serialization")
		}
	})
}
