package core

import (
	"strings"
	"testing"

	"bulksc/internal/chunk"
	"bulksc/internal/mem"
)

// The replay checker is the correctness oracle for the whole repository,
// so it gets its own adversarial tests: hand-built commit records with
// known violations must be flagged, and known-good ones must pass.

// verifySC runs the replay checker on fresh storage.
func verifySC(commits []CommitRecord) []string { return new(replayer).verify(commits) }

func mkRecord(proc int, seq, order uint64, ops ...chunk.AccessRec) CommitRecord {
	return CommitRecord{Proc: proc, Seq: seq, CommitOrder: order, Log: ops}
}

func chunkLoad(addr, val uint64) chunk.AccessRec {
	return chunk.AccessRec{Addr: mem.Addr(addr), Value: val}
}

func chunkStore(addr, val uint64) chunk.AccessRec {
	return chunk.AccessRec{IsStore: true, Addr: mem.Addr(addr), Value: val}
}

func TestCheckerAcceptsSequentialHistory(t *testing.T) {
	commits := []CommitRecord{
		mkRecord(0, 1, 1, chunkStore(0x1000, 7)),
		mkRecord(1, 1, 2, chunkLoad(0x1000, 7), chunkStore(0x1000, 9)),
		mkRecord(0, 2, 3, chunkLoad(0x1000, 9)),
	}
	if bad := verifySC(commits); len(bad) != 0 {
		t.Fatalf("valid history flagged: %v", bad)
	}
}

func TestCheckerCatchesStaleRead(t *testing.T) {
	commits := []CommitRecord{
		mkRecord(0, 1, 1, chunkStore(0x1000, 7)),
		mkRecord(1, 1, 2, chunkLoad(0x1000, 0)), // stale: replay has 7
	}
	bad := verifySC(commits)
	if len(bad) == 0 {
		t.Fatal("stale read not flagged")
	}
	if !strings.Contains(bad[0], "observed 0") {
		t.Fatalf("unexpected finding: %s", bad[0])
	}
}

func TestCheckerCatchesFutureRead(t *testing.T) {
	commits := []CommitRecord{
		mkRecord(0, 1, 1, chunkLoad(0x1000, 7)), // reads a value written later
		mkRecord(1, 1, 2, chunkStore(0x1000, 7)),
	}
	if bad := verifySC(commits); len(bad) == 0 {
		t.Fatal("too-new read not flagged")
	}
}

func TestCheckerCatchesBrokenAtomicity(t *testing.T) {
	// Chunk at order 2 observes x before y of the order-1 chunk's writes —
	// impossible if order-1 was atomic.
	commits := []CommitRecord{
		mkRecord(0, 1, 1, chunkStore(0x1000, 1), chunkStore(0x2000, 1)),
		mkRecord(1, 1, 2, chunkLoad(0x1000, 1), chunkLoad(0x2000, 0)),
	}
	if bad := verifySC(commits); len(bad) == 0 {
		t.Fatal("broken chunk atomicity not flagged")
	}
}

func TestCheckerRespectsIntraChunkOrder(t *testing.T) {
	// A load after a store to the same address within one chunk must see
	// the chunk's own value.
	commits := []CommitRecord{
		mkRecord(0, 1, 1, chunkStore(0x1000, 5), chunkLoad(0x1000, 5)),
	}
	if bad := verifySC(commits); len(bad) != 0 {
		t.Fatalf("own-store forwarding flagged: %v", bad)
	}
	commits[0].Log[1].Value = 0 // claims it saw the old value
	if bad := verifySC(commits); len(bad) == 0 {
		t.Fatal("violated own-store order not flagged")
	}
}

func TestCheckerWordGranularity(t *testing.T) {
	// Writes to different words of one line must not interfere.
	commits := []CommitRecord{
		mkRecord(0, 1, 1, chunkStore(0x1000, 1), chunkStore(0x1008, 2)),
		mkRecord(1, 1, 2, chunkLoad(0x1000, 1), chunkLoad(0x1008, 2)),
	}
	if bad := verifySC(commits); len(bad) != 0 {
		t.Fatalf("word-granular history flagged: %v", bad)
	}
}

func TestCheckerOrderIndependentInput(t *testing.T) {
	// The checker sorts by CommitOrder; feeding commits out of order must
	// not change the verdict.
	a := mkRecord(0, 1, 2, chunkLoad(0x1000, 7))
	b := mkRecord(1, 1, 1, chunkStore(0x1000, 7))
	if bad := verifySC([]CommitRecord{a, b}); len(bad) != 0 {
		t.Fatalf("out-of-order input flagged: %v", bad)
	}
}

func TestCheckerTruncatesFindings(t *testing.T) {
	var commits []CommitRecord
	for i := uint64(0); i < 50; i++ {
		commits = append(commits, mkRecord(0, i+1, i+1, chunkLoad(0x1000, 99)))
	}
	bad := verifySC(commits)
	if len(bad) == 0 || len(bad) > 20 {
		t.Fatalf("finding cap broken: %d findings", len(bad))
	}
}

func TestCheckerPerProcessorOrder(t *testing.T) {
	// Two chunks of one processor claiming the same commit order cannot
	// both follow the processor's previous commit.
	commits := []CommitRecord{
		mkRecord(0, 1, 1, chunkStore(0x1000, 1)),
		mkRecord(0, 2, 1, chunkLoad(0x1000, 1)),
	}
	bad := verifySC(commits)
	if len(bad) != 1 || bad[0] != "proc 0 chunk 2 committed out of per-processor order" {
		t.Fatalf("unexpected findings: %q", bad)
	}
}

func TestCheckerReuseForgetsPreviousReplay(t *testing.T) {
	// A machine's replayer is reused across runs: the second history's
	// loads of unwritten words read zero, whatever the first one stored,
	// and its processors start with no previous commit.
	var r replayer
	first := []CommitRecord{
		mkRecord(0, 1, 1, chunkStore(0x1000, 7)),
		mkRecord(1, 1, 5, chunkStore(0x1008, 3)),
	}
	if bad := r.verify(first); len(bad) != 0 {
		t.Fatalf("first history flagged: %v", bad)
	}
	second := []CommitRecord{
		mkRecord(1, 1, 1, chunkLoad(0x1000, 0), chunkLoad(0x1008, 0)),
	}
	if bad := r.verify(second); len(bad) != 0 {
		t.Fatalf("reused replayer flagged a fresh history: %v", bad)
	}
}

func TestCheckerFindingsMatchInAnyOrder(t *testing.T) {
	// The same history, in commit order and shuffled, yields the same
	// findings with the same text.
	commits := []CommitRecord{
		mkRecord(0, 1, 1, chunkStore(0x1000, 7)),
		mkRecord(1, 1, 2, chunkLoad(0x1000, 0)),
		mkRecord(0, 2, 3, chunkStore(0x1000, 9), chunkLoad(0x2000, 4)),
		mkRecord(1, 2, 4, chunkLoad(0x1000, 7)),
	}
	want := verifySC(commits)
	if len(want) != 3 {
		t.Fatalf("want 3 findings, got %q", want)
	}
	shuffled := []CommitRecord{commits[2], commits[0], commits[3], commits[1]}
	got := verifySC(shuffled)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("shuffled input: %q, want %q", got, want)
	}
	if shuffled[0].CommitOrder != 3 {
		t.Fatal("the checker reordered its input in place")
	}
}
