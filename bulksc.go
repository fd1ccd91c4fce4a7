// Package bulksc is a from-scratch reproduction of the system described in
//
//	Luis Ceze, James Tuck, Pablo Montesinos, Josep Torrellas.
//	"BulkSC: Bulk Enforcement of Sequential Consistency." ISCA 2007.
//
// It provides a complete simulated chip multiprocessor — checkpointed
// processors, Bloom-filter address signatures, private L1s with a Bulk
// Disambiguation Module, a shared L2, full-bit-vector directory modules
// with a DirBDM, commit arbiters (central and distributed), and a generic
// interconnect — together with the paper's three baselines (SC with
// read/exclusive prefetching, RC with speculation across fences, and
// SC++), a suite of thirteen workload generators mirroring the paper's
// evaluation suite, and an SC replay checker that verifies every BulkSC
// execution is sequentially consistent.
//
// The one-call entry point:
//
//	res, err := bulksc.Run(bulksc.DefaultConfig("radix"))
//	fmt.Println(res.Cycles, res.Stats.SquashedPct())
//
// Configurations correspond to the paper's Table 2: pick a Model (SC, RC,
// SC++, BulkSC), a BulkSC variant (base / dypvt / stpvt / exact via the
// Dypvt, Stpvt and SigKind fields), chunk size, processor count and
// workload. See the examples/ directory and EXPERIMENTS.md for the
// harnesses that regenerate every table and figure of the paper's
// evaluation.
package bulksc

import (
	"bulksc/internal/core"
	"bulksc/internal/fault"
	"bulksc/internal/sig"
	"bulksc/internal/stats"
	"bulksc/internal/workload"
)

// Config describes one simulated machine and workload (paper Table 2).
type Config = core.Config

// Result is the outcome of one simulation run.
type Result = core.Result

// Stats is the counter block behind the paper's Tables 3/4 and Figures
// 9-11.
type Stats = stats.Stats

// ModelKind selects the consistency implementation.
type ModelKind = core.ModelKind

// The four machine models of the paper's evaluation.
const (
	ModelSC   = core.ModelSC
	ModelRC   = core.ModelRC
	ModelSCpp = core.ModelSCpp
	ModelBulk = core.ModelBulk
)

// SigKind selects the signature implementation for BulkSC.
type SigKind = sig.Kind

// Signature kinds: the banked Bloom encoding of the Bulk hardware, and
// the alias-free variant behind the paper's BSC_exact configuration.
const (
	SigBloom = sig.KindBloom
	SigExact = sig.KindExact
)

// SigGeometry parameterizes the Bloom encoding (banks × bits × address
// window) for the §6 signature design-space ablation; see
// experiments.SigSpace.
type SigGeometry = sig.Geometry

// DefaultSigGeometry is the production 2 Kbit encoding.
func DefaultSigGeometry() SigGeometry { return sig.DefaultGeometry() }

// TrafficCategory classifies interconnect traffic (Figure 11).
type TrafficCategory = stats.Category

// Traffic categories in Figure 11's order.
const (
	TrafficData  = stats.CatData
	TrafficRdSig = stats.CatRdSig
	TrafficWrSig = stats.CatWrSig
	TrafficInv   = stats.CatInv
	TrafficOther = stats.CatOther
)

// TrafficCategories lists all categories in display order.
func TrafficCategories() []TrafficCategory { return stats.Categories() }

// Program is an explicit multithreaded workload (see the workload
// builders re-exported below).
type Program = workload.Program

// GenerateProgram deterministically generates app's program for the given
// thread count, per-thread work and seed — exactly what Run does
// internally before simulating. A Program is immutable once generated, so
// one generation may be shared by any number of runs and Runners (sweep
// harnesses memoize it per (app, procs, work, seed) instead of
// regenerating it for every machine model).
func GenerateProgram(app string, procs, work int, seed int64) (*Program, error) {
	gen, err := workload.Get(app)
	if err != nil {
		return nil, err
	}
	return gen(procs, work, seed), nil
}

// FaultCampaign is a named, declarative fault schedule (internal/fault):
// arbiter denial storms and grant delays, network delay jitter, spurious
// bulk-disambiguation squashes, and W-signature aliasing amplification.
type FaultCampaign = fault.Campaign

// FaultPlan is one instantiated fault campaign with a dedicated seeded
// random source; assign it to Config.Faults. A nil plan injects nothing
// and leaves the simulated execution bit-identical to a fault-free build.
type FaultPlan = fault.Plan

// FaultCounters tallies the faults a plan actually injected; see
// Result.FaultCounters.
type FaultCounters = fault.Counters

// FaultCampaigns lists the built-in campaign names ("none" first).
func FaultCampaigns() []string { return fault.Names() }

// FaultCatalog returns the built-in campaigns with their descriptions.
func FaultCatalog() []FaultCampaign { return fault.Catalog() }

// NewFaultPlan instantiates the named catalog campaign with its own
// random source. "" and "none" yield a nil plan (no faults); an unknown
// name is an error listing the valid campaigns. The same (config,
// campaign, seed) triple always injects the identical fault sequence.
func NewFaultPlan(name string, seed int64) (*FaultPlan, error) {
	c, err := fault.Get(name)
	if err != nil {
		return nil, err
	}
	return fault.NewPlan(c, seed), nil
}

// Run simulates cfg's application on cfg's machine.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// RunProgram simulates an explicit program, e.g. a litmus test.
func RunProgram(cfg Config, prog *Program) (*Result, error) { return core.RunProgram(cfg, prog) }

// Runner is a reusable machine context: one simulated machine constructed
// once and reset in place between runs, producing Results bit-identical to
// cold Run while amortizing the multi-megabyte machine arena across a
// sweep. A Runner is not safe for concurrent use; parallel sweeps hold one
// Runner per worker (see experiments.Params.Parallelism).
type Runner = core.Runner

// NewRunner constructs the machine arena once; each subsequent
// Runner.Run/RunProgram reuses it.
func NewRunner() *Runner { return core.NewRunner() }

// DefaultConfig returns the paper's preferred configuration — BSC_dypvt on
// 8 processors with 1000-instruction chunks, Bloom signatures and the RSig
// optimization — running the named application.
func DefaultConfig(app string) Config { return core.DefaultConfig(app) }

// MaxProcs is the largest machine the simulator accepts (core.MaxProcs).
const MaxProcs = core.MaxProcs

// DefaultArbitersFor returns the default arbiter/directory module count
// for a machine of the given size (one module per 8 processors, within
// the supported tier widths).
func DefaultArbitersFor(procs int) int { return core.DefaultArbitersFor(procs) }

// DefaultGArbShardsFor returns the default G-arbiter coordinator shard
// count for an arbiter tier of the given width.
func DefaultGArbShardsFor(arbiters int) int { return core.DefaultGArbShardsFor(arbiters) }

// Variant returns a DefaultConfig adjusted to one of the paper's BulkSC
// configurations: "base", "dypvt", "stpvt" or "exact" (Table 2), or to a
// baseline: "sc", "rc", "sc++".
func Variant(app, variant string) Config {
	cfg := DefaultConfig(app)
	switch variant {
	case "base":
		cfg.Dypvt = false
	case "dypvt":
	case "stpvt":
		cfg.Dypvt = false
		cfg.Stpvt = true
	case "exact":
		cfg.SigKind = SigExact
	case "sc":
		cfg.Model = ModelSC
		cfg.CheckSC = false
	case "rc":
		cfg.Model = ModelRC
		cfg.CheckSC = false
		// RC relaxes store→load order by design; witness findings would
		// describe the model, not a bug.
		cfg.Witness = false
	case "sc++":
		cfg.Model = ModelSCpp
		cfg.CheckSC = false
		cfg.Witness = false
	default:
		panic("bulksc: unknown variant " + variant)
	}
	return cfg
}

// Variants lists the configuration names accepted by Variant, in the
// paper's presentation order (Figure 9).
func Variants() []string {
	return []string{"sc", "rc", "sc++", "base", "dypvt", "exact", "stpvt"}
}

// Apps lists every evaluated application: the eleven SPLASH-2 kernels
// followed by the commercial proxies, in the paper's order.
func Apps() []string { return workload.All() }

// Splash2 lists only the SPLASH-2 kernels.
func Splash2() []string { return workload.Splash2() }

// Commercial lists the commercial workload proxies.
func Commercial() []string { return workload.Commercial() }
