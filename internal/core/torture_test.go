package core

import (
	"fmt"
	"testing"

	"bulksc/internal/fault"
	"bulksc/internal/sig"
	"bulksc/internal/workload"
)

// This file holds the litmus torture matrix: every litmus kernel × every
// machine model × every terminating fault campaign × several seeds, with
// the SC-witness checker on everywhere and the replay checker on for
// BulkSC, every run judged by the litmus outcome oracle (litmus_test.go).
// The contract:
//
//   - every model's outcomes stay inside the set its claimed model
//     allows under every campaign — faults may cost cycles, never
//     correctness;
//   - the RC baseline's genuine store→load relaxation remains observable
//     under every campaign — fault injection must not accidentally
//     serialize the relaxed baseline into SC;
//   - every run under a terminating campaign finishes without tripping
//     the liveness watchdog.

// tortureModels lists the machine models of the matrix by variant key.
var tortureModels = []string{"sc", "rc", "sc++", "base", "dypvt", "exact", "stpvt"}

// tortureCampaigns lists the fault campaigns of the matrix: every
// terminating catalog campaign (livelock is watchdog-only by design and
// has its own test).
func tortureCampaigns() []string {
	var out []string
	for _, c := range fault.Catalog() {
		if c.Terminating {
			out = append(out, c.Name)
		}
	}
	return out
}

// tortureKernel is one kernel of the matrix, built per seed.
type tortureKernel struct {
	name string
	prog func(seed int64) *workload.Program
}

// tortureKernels lists the litmus suite, padded by seed, plus
// CoherenceOrder and Dekker: they store one word many times or take a
// lock, so the replay checker and the witness judge them alone.
func tortureKernels() []tortureKernel {
	var out []tortureKernel
	for _, k := range workload.LitmusSuite() {
		out = append(out, tortureKernel{k.Name, func(s int64) *workload.Program { return k.Build(int(s%4) * 3) }})
	}
	return append(out,
		tortureKernel{"CoherenceOrder", func(int64) *workload.Program { return workload.CoherenceOrder(30) }},
		tortureKernel{"Dekker", func(int64) *workload.Program { return workload.DekkerLock(8, 4) }})
}

// tortureVariants sets each variant's model and options.
var tortureVariants = map[string]func(c *Config){
	"sc":    func(c *Config) { c.Model = ModelSC },
	"rc":    func(c *Config) { c.Model = ModelRC },
	"sc++":  func(c *Config) { c.Model = ModelSCpp },
	"base":  func(c *Config) {},
	"dypvt": func(c *Config) { c.Dypvt = true },
	"exact": func(c *Config) { c.Dypvt, c.SigKind = true, sig.KindExact },
	"stpvt": func(c *Config) { c.Stpvt = true },
}

// tortureConfig builds the machine config for one matrix cell.
func tortureConfig(variant string, nthreads int, seed int64) Config {
	cfg := Config{
		Model:       ModelBulk,
		Procs:       nthreads,
		Work:        1000,
		Seed:        seed,
		ChunkSize:   1000,
		MaxChunks:   2,
		RSigOpt:     true,
		NumArbiters: 1,
		Witness:     true,
		Watchdog:    true, // a terminating campaign must never trip it
	}
	tortureVariants[variant](&cfg)
	cfg.CheckSC = cfg.Model == ModelBulk
	return cfg
}

// TestLitmusTortureMatrix runs the full kernel × model × campaign × seed
// matrix: 8 × 7 × 5 × 2 = 560 cases. Skipped under -short; scripts/check.sh
// runs it under the race detector as a dedicated stage.
func TestLitmusTortureMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("560-case torture matrix in -short mode")
	}
	o := newLitmusOracle(t)
	seeds := []int64{1, 4}
	cases := 0
	for _, k := range tortureKernels() {
		for _, variant := range tortureModels {
			t.Run(k.name+"/"+variant, func(t *testing.T) {
				t.Parallel()
				for _, campaign := range tortureCampaigns() {
					for _, seed := range seeds {
						label := fmt.Sprintf("%s/%s/%s/seed=%d", k.name, variant, campaign, seed)
						prog := k.prog(seed)
						cfg := tortureConfig(variant, len(prog.Threads), seed)
						cfg.Faults = fault.NewPlan(fault.MustGet(campaign),
							int64(len(label))*1000003+seed) // deterministic per-cell seed
						o.run(t, label, variant, k.name, cfg, prog)
					}
				}
			})
			cases += len(tortureCampaigns()) * len(seeds)
		}
	}
	if cases < 150 {
		t.Fatalf("torture matrix shrank to %d cases; the contract requires ≥150", cases)
	}
}

// TestRCRelaxationSurvivesFaults: under every terminating campaign, the
// RC baseline must still be able to exhibit the store-buffer relaxation
// for some (pad, seed) — fault injection must not accidentally serialize
// the relaxed baseline.
func TestRCRelaxationSurvivesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("relaxation sweep in -short mode")
	}
	for _, campaign := range tortureCampaigns() {
		t.Run(campaign, func(t *testing.T) {
			t.Parallel()
			o := newLitmusOracle(t) // requires rc to reach SB's relaxed outcome
			for pad := 0; pad < 30; pad += 3 {
				for seed := int64(1); seed <= 5; seed++ {
					prog := workload.StoreBuffering(pad)
					cfg := tortureConfig("rc", len(prog.Threads), seed)
					cfg.Faults = fault.NewPlan(fault.MustGet(campaign), seed*7919+int64(pad))
					o.run(t, fmt.Sprintf("pad=%d seed=%d", pad, seed), "rc", "SB", cfg, prog)
				}
			}
		})
	}
}

// TestLitmusTorture64Proc re-runs the kernel × model matrix on a 64-proc
// machine for one seed: each kernel is padded with private-stack filler
// threads (PadThreads), so the litmus threads race under real big-machine
// pressure — 8 interleaved arbiters, the sharded G-arbiter, and a directory
// whose sharer sets overflow the inline pointers. Every model's outcomes
// must stay inside its claimed set with the machine scaled up.
func TestLitmusTorture64Proc(t *testing.T) {
	if testing.Short() {
		t.Skip("64-proc torture in -short mode")
	}
	const procs = 64
	const seed = int64(3)
	o := newLitmusOracle(t)
	for _, k := range tortureKernels() {
		for _, variant := range tortureModels {
			t.Run(k.name+"/"+variant, func(t *testing.T) {
				t.Parallel()
				prog := workload.PadThreads(k.prog(seed), procs, 400, seed)
				if len(prog.Threads) != procs {
					t.Fatalf("padded to %d threads, want %d", len(prog.Threads), procs)
				}
				cfg := tortureConfig(variant, procs, seed)
				cfg.NumArbiters = DefaultArbitersFor(procs)
				cfg.GArbShards = DefaultGArbShardsFor(cfg.NumArbiters)
				o.run(t, k.name+"/"+variant, variant, k.name, cfg, prog)
			})
		}
	}
}
