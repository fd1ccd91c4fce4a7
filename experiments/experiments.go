// Package experiments contains the harnesses that regenerate every table
// and figure of the paper's evaluation (§7):
//
//	Fig9   — performance of SC, RC, SC++, BSC_base, BSC_dypvt, BSC_exact
//	         and BSC_stpvt, normalized to RC, per application.
//	Fig10  — BSC_dypvt with 1000/2000/4000-instruction chunks plus the
//	         4000-exact ablation.
//	Table3 — BulkSC characterization: squashed instructions, set sizes,
//	         speculative-line displacements, private-buffer traffic,
//	         extra cache invalidations.
//	Table4 — commit & coherence characterization: directory expansion,
//	         arbiter occupancy, RSig effectiveness.
//	Fig11  — interconnect traffic by category, normalized to RC.
//	ArbScale — the §4.2.3 distributed-arbiter ablation (an extension:
//	         the paper describes the design but does not measure it).
//
// Runs are independent simulations and execute in parallel across CPUs.
// The absolute numbers depend on this repository's synthetic substrate;
// the shapes — who wins, by what factor, which application is anomalous —
// are the reproduction targets (see EXPERIMENTS.md).
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"bulksc"
)

// Params control an experiment sweep.
type Params struct {
	Apps []string // defaults to bulksc.Apps()
	Work int      // per-thread dynamic instructions (default 120k)
	Seed int64
	// Parallelism bounds concurrent simulations (default NumCPU). Each
	// worker owns one warm bulksc.Runner, so machine construction happens
	// Parallelism times per sweep, not once per cell.
	Parallelism int
	// Cold disables warm machine reuse: every cell constructs a fresh
	// machine instead of resetting a per-worker Runner in place. Results
	// are bit-identical either way (that equivalence is golden-tested);
	// this is the escape hatch for isolating a suspected reuse bug and
	// for benchmarking the reuse win itself (cmd/sweep -cold).
	Cold bool
	// Witness enables the online SC-witness checker (internal/sccheck)
	// for every SC-claiming run of the sweep (BulkSC and the SC
	// baseline); a witness violation fails the sweep. Off by default:
	// performance sweeps pay for it only when asked (cmd/sweep -sccheck).
	Witness bool
	// FaultCampaign names a fault-injection campaign
	// (bulksc.FaultCampaigns) applied to every run of the sweep; "" or
	// "none" runs fault-free. Each (app, key) run gets its own plan
	// seeded from FaultSeed and the run's identity, so concurrent runs
	// never share a random source and every run is individually
	// reproducible.
	FaultCampaign string
	// FaultSeed is the base seed for fault plans (default 1).
	FaultSeed int64
	// Ctx, when non-nil, cancels the sweep between cells: once the
	// context is done no further simulation starts (in-flight cells run
	// to completion — a simulation has no internal preemption point) and
	// the sweep returns the context's error. Nil means "never cancel".
	Ctx context.Context
	// OnCell, when non-nil, is invoked once per successfully completed
	// cell, with its dispatch index and the sweep's total cell count.
	// With Worker set, calls arrive serially in dispatch order; in the
	// parallel path they arrive in completion order, serialized by the
	// sweep's result lock. The callback must not retain or mutate
	// Cell.Result.
	OnCell func(Cell)
	// Worker, when non-nil, runs the whole sweep serially on that
	// persistent worker (its warm Runner and its cross-sweep program
	// memo) instead of fanning out across Parallelism fresh workers.
	// This is the service execution mode: a daemon pool holds one Worker
	// per slot and parallelizes across jobs, not within them. Cold is
	// ignored when Worker is set.
	Worker *Worker
}

func (p Params) withDefaults() Params {
	if len(p.Apps) == 0 {
		p.Apps = bulksc.Apps()
	}
	if p.Work == 0 {
		p.Work = 120_000
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Parallelism == 0 {
		p.Parallelism = runtime.NumCPU()
	}
	if p.FaultSeed == 0 {
		p.FaultSeed = 1
	}
	return p
}

// faultSeed derives a per-run fault-plan seed from the base seed and the
// run's identity, so each concurrent simulation owns an independent,
// reproducible random source.
func faultSeed(base int64, app, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(app))
	h.Write([]byte{'/'})
	h.Write([]byte(key))
	return base ^ int64(h.Sum64())
}

// progCache memoizes generated programs per (app, procs, work, seed)
// within one sweep: a Figure 9 sweep runs 7 machine models over the same
// program, and regenerating it per cell is pure waste. Programs are
// immutable once generated, so one instance is safely shared across
// workers and runs; the per-key once makes concurrent first requests
// generate exactly once without serializing unrelated generations.
//
// A zero cap leaves the cache unbounded (the batch-sweep case: one sweep's
// key set is finite and small). A positive cap bounds it FIFO for the
// persistent per-Worker memo a long-lived service holds: when a fresh key
// would exceed the cap, the oldest key is dropped. Eviction only removes
// the map entry; a goroutine already holding the entry keeps its (still
// immutable) program.
type progCache struct {
	mu    sync.Mutex
	m     map[string]*progEntry
	cap   int
	order []string // insertion order, maintained only when cap > 0
}

type progEntry struct {
	once sync.Once
	prog *bulksc.Program
	err  error
}

func (c *progCache) get(app string, procs, work int, seed int64) (*bulksc.Program, error) {
	key := fmt.Sprintf("%s/%d/%d/%d", app, procs, work, seed)
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &progEntry{}
		c.m[key] = e
		if c.cap > 0 {
			c.order = append(c.order, key)
			if len(c.order) > c.cap {
				delete(c.m, c.order[0])
				c.order = c.order[1:]
			}
		}
	}
	c.mu.Unlock()
	e.once.Do(func() { e.prog, e.err = bulksc.GenerateProgram(app, procs, work, seed) })
	return e.prog, e.err
}

// runMatrix executes one simulation per (app, key) pair on a fixed pool of
// Parallelism workers and returns results indexed [app][key]. Each worker
// owns one warm bulksc.Runner (unless Params.Cold), so the machine arena
// is constructed once per worker instead of once per cell, and workloads
// are memoized per (app, procs, work, seed) instead of regenerated per
// model.
func runMatrix(p Params, keys []string, mk func(app, key string) bulksc.Config) (map[string]map[string]*bulksc.Result, error) {
	p = p.withDefaults()
	type job struct {
		app, key string
		cfg      bulksc.Config
		index    int // dispatch order, reported through Cell.Index
	}
	// Validate the campaign once; per-run plans are built below.
	if _, err := bulksc.NewFaultPlan(p.FaultCampaign, p.FaultSeed); err != nil {
		return nil, err
	}
	var jobs []job
	for _, app := range p.Apps {
		for _, key := range keys {
			cfg := mk(app, key)
			cfg.Work = p.Work
			cfg.Seed = p.Seed
			// The witness checker gates only the models that claim SC; RC
			// and SC++ relax store→load order by design. Fault campaigns
			// never weaken the gate: injected faults are sound (denials
			// retry, squashes re-execute, phantom bits only add conflicts),
			// so an SC-claiming model must stay witness-clean under any
			// campaign.
			cfg.Witness = p.Witness && (cfg.Model == bulksc.ModelBulk || cfg.Model == bulksc.ModelSC)
			if plan, err := bulksc.NewFaultPlan(p.FaultCampaign, faultSeed(p.FaultSeed, app, key)); err == nil {
				cfg.Faults = plan
			}
			jobs = append(jobs, job{app, key, cfg, len(jobs)})
		}
	}
	results := make(map[string]map[string]*bulksc.Result)
	for _, app := range p.Apps {
		results[app] = make(map[string]*bulksc.Result)
	}

	// classify turns one completed simulation into either a stored result
	// or an error; shared verbatim by the serial and parallel paths so the
	// service execution mode cannot drift from the batch one.
	classify := func(j job, res *bulksc.Result, err error) error {
		switch {
		case err != nil:
			return fmt.Errorf("%s/%s: %w", j.app, j.key, err)
		case len(res.SCViolations) > 0:
			return fmt.Errorf("%s/%s: SC violated: %s", j.app, j.key, res.SCViolations[0])
		case len(res.WitnessViolations) > 0:
			return fmt.Errorf("%s/%s: SC witness violated: %s", j.app, j.key, res.WitnessViolations[0])
		}
		results[j.app][j.key] = res
		return nil
	}

	if p.Worker != nil {
		// Service mode: the whole sweep runs serially on one persistent
		// worker — its warm machine and its cross-sweep program memo —
		// with a cancellation check before every cell. Completion order
		// equals dispatch order, so OnCell streams monotonic progress.
		for i, j := range jobs {
			if err := ctxErr(p.Ctx); err != nil {
				return nil, fmt.Errorf("experiments: sweep canceled before cell %s/%s: %w", j.app, j.key, err)
			}
			prog, err := p.Worker.progs.get(j.app, j.cfg.Procs, j.cfg.Work, j.cfg.Seed)
			var res *bulksc.Result
			if err == nil {
				res, err = p.Worker.runner.RunProgram(j.cfg, prog)
			}
			if err := classify(j, res, err); err != nil {
				return nil, err
			}
			if p.OnCell != nil {
				p.OnCell(Cell{App: j.app, Key: j.key, Index: i, Total: len(jobs), Result: res})
			}
		}
		return results, nil
	}

	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		errs   []error
		progs  = &progCache{m: make(map[string]*progEntry)}
		jobsCh = make(chan job)
	)
	for w := 0; w < p.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var runner *bulksc.Runner
			if !p.Cold {
				runner = bulksc.NewRunner()
			}
			for j := range jobsCh {
				prog, err := progs.get(j.app, j.cfg.Procs, j.cfg.Work, j.cfg.Seed)
				var res *bulksc.Result
				if err == nil {
					if runner != nil {
						res, err = runner.RunProgram(j.cfg, prog)
					} else {
						res, err = bulksc.RunProgram(j.cfg, prog)
					}
				}
				mu.Lock()
				if cerr := classify(j, res, err); cerr != nil {
					errs = append(errs, cerr)
				} else if p.OnCell != nil {
					p.OnCell(Cell{App: j.app, Key: j.key, Index: j.index, Total: len(jobs), Result: res})
				}
				mu.Unlock()
			}
		}()
	}
dispatch:
	for _, j := range jobs {
		if p.Ctx != nil {
			select {
			case jobsCh <- j:
			case <-p.Ctx.Done():
				break dispatch
			}
		} else {
			jobsCh <- j
		}
	}
	close(jobsCh)
	wg.Wait()
	if err := ctxErr(p.Ctx); err != nil {
		return nil, fmt.Errorf("experiments: sweep canceled: %w", err)
	}
	if len(errs) > 0 {
		sort.Slice(errs, func(i, k int) bool { return errs[i].Error() < errs[k].Error() })
		return nil, errs[0]
	}
	return results, nil
}

// GeoMean returns the geometric mean of xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

// Fig9Variants lists the configurations of Figure 9 in presentation order.
func Fig9Variants() []string {
	return []string{"sc", "rc", "sc++", "base", "dypvt", "exact", "stpvt"}
}

// Fig9Row is one application's bar group: speedup over RC per variant.
type Fig9Row struct {
	App     string
	Speedup map[string]float64 // variant → RC-normalized performance
}

// Fig9 reproduces Figure 9. Note: the paper applies BSC_stpvt only to
// SPLASH-2 (its infrastructure could not tag commercial stacks); we run it
// everywhere but report likewise.
func Fig9(p Params) ([]Fig9Row, error) {
	variants := Fig9Variants()
	res, err := runMatrix(p, variants, func(app, v string) bulksc.Config {
		cfg := bulksc.Variant(app, v)
		cfg.CheckSC = false
		return cfg
	})
	if err != nil {
		return nil, err
	}
	p = p.withDefaults()
	var rows []Fig9Row
	for _, app := range p.Apps {
		row := Fig9Row{App: app, Speedup: make(map[string]float64)}
		rc := float64(res[app]["rc"].Cycles)
		for _, v := range variants {
			row.Speedup[v] = ratio(rc, float64(res[app][v].Cycles))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ratio divides with a zero-denominator guard: degenerate cells (a run
// that retired in zero cycles, a baseline with no traffic) report 0
// rather than NaN/Inf, which encoding/json refuses to marshal — NaN in
// any row breaks a sweepd result outright.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Fig9GeoMeanRow appends the SPLASH-2 geometric-mean row ("SP2-G.M."),
// matching the paper's figure.
func Fig9GeoMeanRow(rows []Fig9Row) Fig9Row {
	sp2 := make(map[string]bool)
	for _, a := range bulksc.Splash2() {
		sp2[a] = true
	}
	gm := Fig9Row{App: "SP2-G.M.", Speedup: make(map[string]float64)}
	for _, v := range Fig9Variants() {
		var xs []float64
		for _, r := range rows {
			if sp2[r.App] {
				xs = append(xs, r.Speedup[v])
			}
		}
		gm.Speedup[v] = GeoMean(xs)
	}
	return gm
}

// FormatFig9 renders the rows as the paper's figure does (values are
// performance normalized to RC; higher is better).
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	variants := Fig9Variants()
	fmt.Fprintf(&b, "%-11s", "app")
	for _, v := range variants {
		fmt.Fprintf(&b, "%8s", v)
	}
	b.WriteByte('\n')
	all := append(append([]Fig9Row{}, rows...), Fig9GeoMeanRow(rows))
	for _, r := range all {
		fmt.Fprintf(&b, "%-11s", r.App)
		for _, v := range variants {
			fmt.Fprintf(&b, "%8.2f", r.Speedup[v])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------------

// Fig10Row is one application's chunk-size sensitivity: RC-normalized
// performance of BSC_dypvt at 1000/2000/4000-instruction chunks plus the
// alias-free 4000-exact ablation.
type Fig10Row struct {
	App     string
	Speedup map[string]float64 // "1000", "2000", "4000", "4000-exact"
}

// Fig10Keys lists the series of Figure 10.
func Fig10Keys() []string { return []string{"1000", "2000", "4000", "4000-exact"} }

// Fig10 reproduces Figure 10.
func Fig10(p Params) ([]Fig10Row, error) {
	keys := append([]string{"rc"}, Fig10Keys()...)
	res, err := runMatrix(p, keys, func(app, k string) bulksc.Config {
		if k == "rc" {
			return bulksc.Variant(app, "rc")
		}
		cfg := bulksc.Variant(app, "dypvt")
		cfg.CheckSC = false
		switch k {
		case "1000":
			cfg.ChunkSize = 1000
		case "2000":
			cfg.ChunkSize = 2000
		case "4000":
			cfg.ChunkSize = 4000
		case "4000-exact":
			cfg.ChunkSize = 4000
			cfg.SigKind = bulksc.SigExact
		}
		return cfg
	})
	if err != nil {
		return nil, err
	}
	p = p.withDefaults()
	var rows []Fig10Row
	for _, app := range p.Apps {
		row := Fig10Row{App: app, Speedup: make(map[string]float64)}
		rc := float64(res[app]["rc"].Cycles)
		for _, k := range Fig10Keys() {
			row.Speedup[k] = ratio(rc, float64(res[app][k].Cycles))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig10 renders the chunk-size study.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s", "app")
	for _, k := range Fig10Keys() {
		fmt.Fprintf(&b, "%12s", k)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s", r.App)
		for _, k := range Fig10Keys() {
			fmt.Fprintf(&b, "%12.2f", r.Speedup[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// sorting helper shared by table formatters
// ---------------------------------------------------------------------------

func orderedApps(p Params) []string {
	p = p.withDefaults()
	apps := append([]string{}, p.Apps...)
	order := map[string]int{}
	for i, a := range bulksc.Apps() {
		order[a] = i
	}
	sort.Slice(apps, func(i, j int) bool { return order[apps[i]] < order[apps[j]] })
	return apps
}
