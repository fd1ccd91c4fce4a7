package core

import (
	"fmt"
	"strings"
	"testing"

	"bulksc/internal/workload"
)

// TestProcsMismatchIsError is the regression test for the silent-resize
// bug: RunProgram used to overwrite cfg.Procs with the program's thread
// count, letting sweep configs lie about machine size. A mismatch must now
// be an explicit error naming both counts.
func TestProcsMismatchIsError(t *testing.T) {
	prog := workload.StoreBuffering(0) // 2 threads
	cfg := DefaultConfig("")
	cfg.App = ""
	cfg.Work = 0
	cfg.Procs = 8
	_, err := RunProgram(cfg, prog)
	if err == nil {
		t.Fatal("8-proc config with a 2-thread program did not error")
	}
	if !strings.Contains(err.Error(), "8 processors") || !strings.Contains(err.Error(), "2 threads") {
		t.Fatalf("mismatch error does not name both counts: %v", err)
	}
}

// TestProcsInferredWhenZero: Procs = 0 sizes the machine to the program,
// the sanctioned way to run litmus programs without repeating their thread
// counts.
func TestProcsInferredWhenZero(t *testing.T) {
	prog := workload.StoreBuffering(0)
	cfg := DefaultConfig("")
	cfg.App = ""
	cfg.Work = 0
	cfg.Procs = 0
	res, err := RunProgram(cfg, prog)
	if err != nil {
		t.Fatalf("inferred run failed: %v", err)
	}
	if len(res.PerProc) != len(prog.Threads) {
		t.Fatalf("machine sized to %d procs, want %d", len(res.PerProc), len(prog.Threads))
	}
}

// TestProcsBounds pins the machine-size envelope: MaxProcs runs are
// accepted, anything above is rejected.
func TestProcsBounds(t *testing.T) {
	over := workload.Build("over", MaxProcs+1, 1, func(b *workload.Builder) {
		b.Compute(1)
	})
	cfg := DefaultConfig("")
	cfg.App = ""
	cfg.Work = 0
	cfg.Procs = 0
	cfg.Watchdog = false
	if _, err := RunProgram(cfg, over); err == nil {
		t.Fatalf("%d-proc program accepted, want error", MaxProcs+1)
	}
}

// TestRunChecksProcsBeforeGenerating: Run refuses a machine size outside
// [1, MaxProcs] with RunProgram's error, before the generator runs — radix
// divides by the thread count, and a 2000-thread program is megabytes.
func TestRunChecksProcsBeforeGenerating(t *testing.T) {
	r := NewRunner()
	for _, procs := range []int{0, 2000} {
		cfg := DefaultConfig("radix")
		cfg.Procs = procs
		var err error
		allocs := testing.AllocsPerRun(1, func() { _, err = r.Run(cfg) })
		want := fmt.Sprintf("core: %d processors unsupported (max %d)", procs, MaxProcs)
		if err == nil || err.Error() != want {
			t.Errorf("procs %d: error %v, want %q", procs, err, want)
		}
		if allocs > 10 {
			t.Errorf("procs %d: refusal allocated %.0f objects; the program was generated", procs, allocs)
		}
	}
}

// TestBigMachineRadixSmoke runs BulkSC at 256 processors — four times the
// old 64-proc ceiling — with the scaled arbiter tier and sharded
// G-arbiter, and checks SC end to end. The sparse sharer sets make the
// directory footprint O(actual sharers), so this must complete quickly at
// small per-thread work.
func TestBigMachineRadixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	const procs = 256
	cfg := DefaultConfig("radix")
	cfg.Procs = procs
	cfg.Work = 800
	cfg.NumArbiters = DefaultArbitersFor(procs)
	cfg.GArbShards = DefaultGArbShardsFor(cfg.NumArbiters)
	cfg.WarmupFrac = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("256-proc radix: %v", err)
	}
	if len(res.SCViolations) > 0 {
		t.Fatalf("256-proc radix: %s", res.SCViolations[0])
	}
	if len(res.WitnessViolations) > 0 {
		t.Fatalf("256-proc radix: witness: %s", res.WitnessViolations[0])
	}
	if len(res.PerProc) != procs {
		t.Fatalf("%d completion records, want %d", len(res.PerProc), procs)
	}
	if res.Stats.GArbTransactions == 0 {
		t.Error("256-proc radix: G-arbiter never used (multi-range commits expected)")
	}
	// The 256-proc spin path is part of the golden contract.
	if h := res.DeterminismHash(); h != bigRadixHash {
		t.Errorf("256-proc radix: DeterminismHash = %#016x, want %#016x", h, bigRadixHash)
	}
}

// Determinism hashes of the two 256-proc radix smokes, pinned like the
// goldens: a behavioral change must move them deliberately.
const (
	bigRadixHash        uint64 = 0x9b55eeec66f218aa
	bigRadixRecycleHash uint64 = 0xa6aaf350b62232af
)

// TestBigMachineRadixRecycleSmoke is TestBigMachineRadixSmoke with the
// replay checker off, so committed chunks are recycled within the run
// (DefaultConfig's CheckSC keeps every committed chunk for the replay
// check and never reaches that path). The witness still audits every
// commit online.
func TestBigMachineRadixRecycleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	const procs = 256
	cfg := DefaultConfig("radix")
	cfg.Procs = procs
	cfg.Work = 800
	cfg.NumArbiters = DefaultArbitersFor(procs)
	cfg.GArbShards = DefaultGArbShardsFor(cfg.NumArbiters)
	cfg.WarmupFrac = 0
	cfg.CheckSC = false
	cfg.Witness = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("256-proc radix: %v", err)
	}
	if res.WitnessChunks == 0 {
		t.Fatal("256-proc radix: witness audited no chunks")
	}
	if len(res.WitnessViolations) > 0 {
		t.Fatalf("256-proc radix: witness: %s", res.WitnessViolations[0])
	}
	if res.Stats.GArbTransactions == 0 {
		t.Error("256-proc radix: G-arbiter never used (multi-range commits expected)")
	}
	if h := res.DeterminismHash(); h != bigRadixRecycleHash {
		t.Errorf("256-proc radix: DeterminismHash = %#016x, want %#016x", h, bigRadixRecycleHash)
	}
}

// TestDefaultScalingHelpers pins the machine-shape policy the scaling
// experiments use.
func TestDefaultScalingHelpers(t *testing.T) {
	cases := []struct{ procs, arbs, shards int }{
		{8, 1, 1}, {16, 2, 1}, {64, 8, 2}, {256, 32, 8}, {1024, 64, 16},
	}
	for _, c := range cases {
		if got := DefaultArbitersFor(c.procs); got != c.arbs {
			t.Errorf("DefaultArbitersFor(%d) = %d, want %d", c.procs, got, c.arbs)
		}
		if got := DefaultGArbShardsFor(c.arbs); got != c.shards {
			t.Errorf("DefaultGArbShardsFor(%d) = %d, want %d", c.arbs, got, c.shards)
		}
	}
}
