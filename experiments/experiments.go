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
	// Parallelism is the number of Workers a sweep runs on when Worker
	// is nil (default NumCPU). They share one program memo, so machine
	// construction happens once per Worker, not once per cell.
	Parallelism int
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
	// Calls are serialized; on one Worker they arrive in dispatch order.
	// The callback must not retain or mutate Cell.Result.
	OnCell func(Cell)
	// Worker, when non-nil, is the sweep's whole pool: every cell runs
	// serially on that persistent Worker (its warm Runner and its
	// cross-sweep program memo) and Parallelism is ignored. This is the
	// service execution mode: a daemon holds one Worker per pool slot
	// and parallelizes across jobs, not within them.
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

// progCache memoizes generated programs per (app, procs, work, seed): a
// Figure 9 sweep runs 7 machine models over the same program, and
// regenerating it per cell is pure waste. Programs are immutable once
// generated, so one instance is safely shared across workers and runs;
// the per-key once makes concurrent first requests generate exactly once
// without serializing unrelated generations.
//
// The memo is FIFO-capped at workerProgCap, because a long-lived service
// Worker sees an unbounded stream of keys: when a fresh key would exceed
// the cap, the oldest key is dropped. Eviction only removes the map
// entry; a goroutine already holding the entry keeps its (still
// immutable) program.
type progCache struct {
	mu    sync.Mutex
	m     map[string]*progEntry
	order []string // insertion order
}

type progEntry struct {
	once sync.Once
	prog *bulksc.Program
	err  error
}

func newProgCache() *progCache { return &progCache{m: make(map[string]*progEntry)} }

func (c *progCache) get(app string, procs, work int, seed int64) (*bulksc.Program, error) {
	key := fmt.Sprintf("%s/%d/%d/%d", app, procs, work, seed)
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &progEntry{}
		c.m[key] = e
		c.order = append(c.order, key)
		if len(c.order) > workerProgCap {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.mu.Unlock()
	e.once.Do(func() { e.prog, e.err = bulksc.GenerateProgram(app, procs, work, seed) })
	return e.prog, e.err
}

// runMatrix executes one simulation per (app, key) pair and returns
// results indexed [app][key]. The cells run on a pool of Workers, fed in
// dispatch order (apps outer, keys inner): Params.Worker alone when set,
// otherwise Parallelism new Workers sharing one program memo. Each Worker
// resets its warm machine in place between cells, which is bit-identical
// to constructing a fresh one.
//
// No cell starts once Params.Ctx is done, and none starts after a cell
// has failed; cells already running finish. Because dispatch is in order,
// every cell before a failing one has run, so the error reported — that
// of the failing cell with the lowest dispatch index — does not depend on
// the pool's size.
func runMatrix(p Params, keys []string, mk func(app, key string) bulksc.Config) (map[string]map[string]*bulksc.Result, error) {
	p = p.withDefaults()
	type job struct {
		app, key string
		cfg      bulksc.Config
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
			jobs = append(jobs, job{app, key, cfg})
		}
	}
	results := make(map[string]map[string]*bulksc.Result)
	for _, app := range p.Apps {
		results[app] = make(map[string]*bulksc.Result)
	}

	var (
		mu        sync.Mutex // guards everything below, and serializes OnCell
		next      int        // dispatch index of the next cell to start
		failed    int        // dispatch index of the lowest failing cell
		failErr   error
		cancelErr error
	)
	// take hands out the next cell's index, or -1 once every cell has
	// started or the sweep has failed or been canceled.
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next == len(jobs) || failErr != nil || cancelErr != nil {
			return -1
		}
		if err := ctxErr(p.Ctx); err != nil {
			j := jobs[next]
			cancelErr = fmt.Errorf("experiments: sweep canceled before cell %s/%s: %w", j.app, j.key, err)
			return -1
		}
		next++
		return next - 1
	}
	// finish classifies one completed cell as a stored result or an error.
	finish := func(i int, res *bulksc.Result, err error) {
		j := jobs[i]
		switch {
		case err != nil:
			err = fmt.Errorf("%s/%s: %w", j.app, j.key, err)
		case len(res.SCViolations) > 0:
			err = fmt.Errorf("%s/%s: SC violated: %s", j.app, j.key, res.SCViolations[0])
		case len(res.WitnessViolations) > 0:
			err = fmt.Errorf("%s/%s: SC witness violated: %s", j.app, j.key, res.WitnessViolations[0])
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if failErr == nil || i < failed {
				failed, failErr = i, err
			}
			return
		}
		results[j.app][j.key] = res
		if p.OnCell != nil {
			p.OnCell(Cell{App: j.app, Key: j.key, Index: i, Total: len(jobs), Result: res})
		}
	}

	var progs *progCache // shared by the pool's own Workers
	pool := min(p.Parallelism, len(jobs))
	if p.Worker != nil {
		pool = 1
	} else {
		progs = newProgCache()
	}
	var wg sync.WaitGroup
	for range pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := p.Worker
			for i := take(); i >= 0; i = take() {
				if w == nil {
					w = &Worker{runner: bulksc.NewRunner(), progs: progs}
				}
				res, err := w.run(jobs[i].app, jobs[i].cfg)
				finish(i, res, err)
			}
		}()
	}
	wg.Wait()
	if failErr != nil {
		return nil, failErr
	}
	if cancelErr != nil {
		return nil, cancelErr
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
