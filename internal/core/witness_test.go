package core

import (
	"testing"

	"bulksc/internal/sccheck"
)

// runWitnessed runs a small BulkSC system with both checkers on and the
// commit log retained.
func runWitnessed(t *testing.T, app string, seed int64) *Result {
	t.Helper()
	cfg := DefaultConfig(app)
	cfg.Work = 4000
	cfg.Seed = seed
	cfg.WarmupFrac = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	return res
}

// TestWitnessCleanOnRealRuns: the online witness checker agrees with the
// replay checker on real executions — every obligation holds, and the two
// checkers saw the same commits.
func TestWitnessCleanOnRealRuns(t *testing.T) {
	for _, app := range []string{"radix", "ocean", "sjbb2k"} {
		res := runWitnessed(t, app, 7)
		if len(res.SCViolations) > 0 {
			t.Fatalf("%s: replay: %s", app, res.SCViolations[0])
		}
		if len(res.WitnessViolations) > 0 {
			t.Fatalf("%s: witness: %s", app, res.WitnessViolations[0])
		}
		if res.WitnessChunks != res.ChunksChecked {
			t.Fatalf("%s: witness checked %d chunks, replay %d", app, res.WitnessChunks, res.ChunksChecked)
		}
		if res.WitnessChunks == 0 || res.WitnessAccesses == 0 {
			t.Fatalf("%s: witness checker saw nothing", app)
		}
	}
}

// TestWitnessDetectsMutatedRealRun is the end-to-end mutation gate: take a
// real execution's commit records, seed an SC violation into them, and
// verify a fresh checker flags the replayed stream. A checker that cannot
// fail proves nothing.
func TestWitnessDetectsMutatedRealRun(t *testing.T) {
	res := runWitnessed(t, "radix", 11)
	if len(res.Commits) < 2 {
		t.Fatal("not enough commits to mutate")
	}

	replay := func() *sccheck.Checker {
		c := sccheck.New()
		for _, rec := range res.Commits {
			c.BeginChunk(rec.Proc, rec.Seq, rec.CommitOrder)
			for _, op := range rec.Log {
				c.ChunkOp(op.IsStore, op.Addr, op.Value)
			}
			c.EndChunk()
		}
		return c
	}

	// Sanity: the unmutated stream is clean.
	if c := replay(); !c.Ok() {
		t.Fatalf("unmutated commit stream flagged: %v", c.Strings())
	}

	// Mutation 1: corrupt one committed load value (the footprint of a
	// broken-isolation bug).
	var mi, mj = -1, -1
	for i, ch := range res.Commits {
		for j, rec := range ch.Log {
			if !rec.IsStore {
				mi, mj = i, j
			}
		}
	}
	if mi < 0 {
		t.Fatal("no committed load found")
	}
	res.Commits[mi].Log[mj].Value ^= 0x5a5a
	if c := replay(); c.Ok() {
		t.Fatal("mutated load value not detected")
	}
	res.Commits[mi].Log[mj].Value ^= 0x5a5a // restore

	// Mutation 2: break the claimed serialization by swapping two commit
	// orders (the footprint of an arbiter ordering bug).
	a, b := &res.Commits[0], &res.Commits[len(res.Commits)/2]
	a.CommitOrder, b.CommitOrder = b.CommitOrder, a.CommitOrder
	c := replay()
	a.CommitOrder, b.CommitOrder = b.CommitOrder, a.CommitOrder // restore
	if c.Ok() {
		t.Fatal("swapped commit orders not detected")
	}
	found := false
	for _, v := range c.Violations() {
		if v.Kind == sccheck.KindTotalOrder {
			found = true
		}
	}
	if !found {
		t.Fatalf("want a total-order violation, got %v", c.Strings())
	}
}
