package core

import (
	"runtime"
	"testing"

	"bulksc/internal/arbiter"
	"bulksc/internal/mem"
	"bulksc/internal/workload"
)

// maxAllocsPerChunk bounds the heap allocations per committed chunk of a
// warm 64-proc, 8-arbiter radix run. Before the commit pipeline moved to
// pooled records on typed deliveries the run allocated about 38 objects
// per chunk; the bound is a tenth of that.
const maxAllocsPerChunk = 3.8

// maxAllocsPerCheckedChunk bounds the same run with the replay checker
// on. Its commit records and log blocks are the Result's own storage and
// grow geometrically; the chunks themselves recycle as in any other run.
// A run that kept its committed chunks instead would construct every
// chunk anew, with its signatures, sets and log, at many allocations
// each.
const maxAllocsPerCheckedChunk = 1

// TestCommitPipelineAllocs runs radix at 64 procs with 8 arbiters and a
// sharded G-arbiter, so both single-arbiter and multi-range commits
// occur, twice on one Runner, and bounds the second run's allocations per
// committed chunk: a steady-state commit (request, arbitration, R fetch,
// G-arbiter reserve/confirm, directory fan-out and acks) allocates
// nothing, with or without the replay checker.
func TestCommitPipelineAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name    string
		checkSC bool
		bound   float64
	}{
		{"no-checker", false, maxAllocsPerChunk},
		{"checker", true, maxAllocsPerCheckedChunk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			commitPipelineAllocs(t, tc.checkSC, tc.bound)
		})
	}
}

func commitPipelineAllocs(t *testing.T, checkSC bool, bound float64) {
	cfg := DefaultConfig("radix")
	cfg.Procs = 64
	cfg.Work = 20000
	cfg.NumArbiters = 8
	cfg.GArbShards = DefaultGArbShardsFor(cfg.NumArbiters)
	cfg.CheckSC = checkSC
	cfg.Witness = false
	if cfg.GArbShards < 2 {
		t.Fatalf("GArbShards = %d, want a sharded G-arbiter", cfg.GArbShards)
	}
	gen, err := workload.Get(cfg.App)
	if err != nil {
		t.Fatal(err)
	}
	prog := gen(cfg.Procs, cfg.Work, cfg.Seed)
	r := NewRunner()
	if _, err := r.RunProgram(cfg, prog); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := r.RunProgram(cfg, prog)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MultiArbCommits == 0 {
		t.Fatal("no multi-range commits: the G-arbiter path went untested")
	}
	chunks := res.Stats.Chunks
	if chunks == 0 {
		t.Fatal("no chunks committed")
	}
	perChunk := float64(after.Mallocs-before.Mallocs) / float64(chunks)
	t.Logf("%d allocations over %d committed chunks (%d multi-range): %.2f per chunk",
		after.Mallocs-before.Mallocs, chunks, res.Stats.MultiArbCommits, perChunk)
	if perChunk > bound {
		t.Errorf("%.2f allocations per committed chunk, want ≤ %.1f", perChunk, bound)
	}
	if checkSC && (len(res.SCViolations) > 0 || res.ChunksChecked == 0) {
		t.Fatalf("replay checker: %d chunks checked, findings %v", res.ChunksChecked, res.SCViolations)
	}
}

// TestDirectoryEntriesLiveInTheirModule backs the directory expansion's
// lack of an ownership check: after a 64-proc, 8-arbiter run with the
// stpvt Wpriv propagation on, every entry of every directory module maps
// to that module under arbiter.RangeOf, because Read, Writeback and
// PrivCommit all route by it.
func TestDirectoryEntriesLiveInTheirModule(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, stpvt := range []bool{false, true} {
		cfg := DefaultConfig("radix")
		cfg.Procs = 64
		cfg.Work = 10000
		cfg.NumArbiters = 8
		cfg.GArbShards = DefaultGArbShardsFor(cfg.NumArbiters)
		cfg.Stpvt = stpvt
		r := NewRunner()
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
		entries := 0
		for i, d := range r.m.dirs {
			d.ForEachLine(func(l mem.Line) {
				entries++
				if got := arbiter.RangeOf(l, len(r.m.dirs)); got != i {
					t.Fatalf("stpvt=%v: directory %d holds line %#x of module %d", stpvt, i, l, got)
				}
			})
		}
		if entries == 0 {
			t.Fatalf("stpvt=%v: no directory entries", stpvt)
		}
	}
}
