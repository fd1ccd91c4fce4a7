package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"bulksc"
)

// cell is one simulation of a cell-based workload (fig9-8p, scale-256p,
// sc-check): a machine configuration and the app whose program it runs.
type cell struct {
	app, key string
	cfg      bulksc.Config
	// after, when set, runs on the worker right after the simulation
	// (sc-check reads and checks the exported history there) and records
	// its verdict in out.
	after func(c *cell, res *bulksc.Result, sp *spans, out *cellOut)
}

func (c *cell) id() string { return c.app + "/" + c.key }

// cellOut is one cell's outcome.
type cellOut struct {
	// res is the cell's result without its committed-chunk log, which is
	// dropped once hash holds the determinism hash that covers it.
	res    *bulksc.Result
	hash   string
	err    error
	hostNs int64 // host time of the whole operation (simulate + after)
	cpuNs  int64 // CPU time the worker's thread spent on it
	runNs  int64 // host time of Runner.RunProgram alone
	// verified counts operations an independent checker verified.
	verified uint64
	// wrong, when set, says why the cell's output is incorrect.
	wrong string
}

func (o *cellOut) ok() bool { return o.err == nil && o.wrong == "" }

// pass is one execution of a workload's full cell list.
type pass struct {
	cells  []cell
	outs   []cellOut
	wallNs int64
	busyNs int64 // Σ worker time spent inside cells
}

// progMemo generates each (app, procs, work, seed) program once per pass,
// on whichever worker first needs it, inside a workload.gen span.
type progMemo struct {
	mu sync.Mutex
	m  map[string]*progEntry
}

type progEntry struct {
	once sync.Once
	prog *bulksc.Program
	err  error
}

func (pm *progMemo) get(sp *spans, c *bulksc.Config) (*bulksc.Program, error) {
	key := fmt.Sprintf("%s/%d/%d/%d", c.App, c.Procs, c.Work, c.Seed)
	pm.mu.Lock()
	if pm.m == nil {
		pm.m = make(map[string]*progEntry)
	}
	e, ok := pm.m[key]
	if !ok {
		e = &progEntry{}
		pm.m[key] = e
	}
	pm.mu.Unlock()
	e.once.Do(func() {
		end := sp.start("workload.gen")
		e.prog, e.err = bulksc.GenerateProgram(c.App, c.Procs, c.Work, c.Seed)
		end()
	})
	return e.prog, e.err
}

// runPass runs cells on one worker per runner, in list order, each worker
// owning its warm Runner. It generates programs on demand, so generation
// cost lands inside the pass the way it does in an experiments sweep.
func runPass(runners []*bulksc.Runner, cells []cell, sp *spans) *pass {
	p := &pass{cells: cells, outs: make([]cellOut, len(cells))}
	var (
		progs progMemo
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  = make(chan int)
	)
	t0 := time.Now()
	for _, r := range runners {
		wg.Add(1)
		go func(r *bulksc.Runner) {
			defer wg.Done()
			// One thread per worker, so the thread's CPU clock times the
			// worker's cells alone.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			var busy int64
			for i := range next {
				c := &cells[i]
				out := &p.outs[i]
				start, cpu0 := time.Now(), threadCPUNs()
				prog, err := progs.get(sp, &c.cfg)
				if err == nil {
					end := sp.start("core.run")
					rs := time.Now()
					out.res, err = r.RunProgram(c.cfg, prog)
					out.runNs = time.Since(rs).Nanoseconds()
					end()
				}
				out.err = err
				if err == nil {
					checkResult(c, out)
					if c.after != nil {
						c.after(c, out.res, sp, out)
					}
					out.hash = fmt.Sprintf("%016x", out.res.DeterminismHash())
					out.res.Commits = nil
				}
				out.hostNs = time.Since(start).Nanoseconds()
				out.cpuNs = threadCPUNs() - cpu0
				busy += out.hostNs
			}
			mu.Lock()
			p.busyNs += busy
			mu.Unlock()
		}(r)
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	p.wallNs = time.Since(t0).Nanoseconds()
	return p
}

// checkResult applies the checks every simulation gets: the replay
// checker's and the online witness's verdicts.
func checkResult(c *cell, out *cellOut) {
	res := out.res
	switch {
	case len(res.SCViolations) > 0:
		out.wrong = fmt.Sprintf("%s: SC replay violation: %s", c.id(), res.SCViolations[0])
	case len(res.WitnessViolations) > 0:
		out.wrong = fmt.Sprintf("%s: SC witness violation: %s", c.id(), res.WitnessViolations[0])
	}
	if c.cfg.CheckSC && c.cfg.Model == bulksc.ModelBulk && out.wrong == "" {
		for _, ch := range res.Commits {
			out.verified += uint64(len(ch.Log))
		}
	}
}

// runPasses repeats passes until the budget is spent; the last pass may
// overrun it, and at least one pass always runs.
func runPasses(runners []*bulksc.Runner, mk func() []cell, budget time.Duration, sp *spans) []*pass {
	var passes []*pass
	for t0 := time.Now(); len(passes) == 0 || time.Since(t0) < budget; {
		passes = append(passes, runPass(runners, mk(), sp))
	}
	return passes
}

// newRunners builds one warm machine per worker.
func newRunners(n int, sp *spans) []*bulksc.Runner {
	rs := make([]*bulksc.Runner, n)
	for i := range rs {
		end := sp.start("core.new_runner")
		rs[i] = bulksc.NewRunner()
		end()
	}
	return rs
}

// setupRunners is the cell workloads' setup: it builds the worker pool and
// runs a small water-sp program on every machine at the workload's size, so
// the lazily grown machine arenas exist before the first timed cell. It
// reports setup_s as the median of several setups and returns the last
// pool.
func setupRunners(r *result, sp *spans, like bulksc.Config) ([]*bulksc.Runner, error) {
	warm := bulksc.Variant("water-sp", "dypvt")
	warm.CheckSC, warm.Witness = false, false
	warm.Procs, warm.NumArbiters, warm.GArbShards = like.Procs, like.NumArbiters, like.GArbShards
	warm.Work = 1000
	prog, err := bulksc.GenerateProgram(warm.App, warm.Procs, warm.Work, warm.Seed)
	if err != nil {
		return nil, err
	}
	var runners []*bulksc.Runner
	setup, err := medianSetup(func() (func(), error) {
		runners = newRunners(runtime.NumCPU(), sp)
		for _, rn := range runners {
			if _, err := rn.RunProgram(warm, prog); err != nil {
				return nil, fmt.Errorf("warm-up run: %w", err)
			}
		}
		return func() { runners = nil }, nil
	})
	r.m["setup_s"] = setup
	r.m["core.new_runner_ms"] = sp.meanMs("core.new_runner")
	return runners, err
}

// cellTotals sums simulated and host quantities over passes.
type cellTotals struct {
	ok           int
	wallNs       int64
	busyNs       int64
	workers      int
	lat          []float64 // successful operations' thread CPU ms
	failedHostNs int64
	runNs        int64 // Σ Runner.RunProgram host time, successful cells
	simWallNs    int64 // Σ Result.WallNs
	events       uint64
	instrs       uint64 // Σ Stats.CommittedInstrs (post-warmup window)
	cycles       uint64
	verified     uint64
	st           bulksc.Stats
}

func sumPasses(passes []*pass, workers int) *cellTotals {
	t := &cellTotals{workers: workers}
	for _, p := range passes {
		t.wallNs += p.wallNs
		t.busyNs += p.busyNs
		for i := range p.outs {
			o := &p.outs[i]
			if !o.ok() {
				t.failedHostNs += o.hostNs
				continue
			}
			t.ok++
			t.lat = append(t.lat, float64(o.cpuNs)/1e6)
			t.runNs += o.runNs
			t.simWallNs += o.res.WallNs
			t.events += o.res.EventsFired
			t.instrs += o.res.Stats.CommittedInstrs
			t.cycles += o.res.Cycles
			t.verified += o.verified
			addStats(&t.st, o.res.Stats)
		}
	}
	return t
}

// addStats accumulates the counters the per-layer metrics read.
func addStats(d, s *bulksc.Stats) {
	d.CommittedInstrs += s.CommittedInstrs
	d.SquashedInstrs += s.SquashedInstrs
	d.Squashes += s.Squashes
	d.SquashesAliased += s.SquashesAliased
	d.CommitRequests += s.CommitRequests
	d.CommitDenies += s.CommitDenies
	d.GArbTransactions += s.GArbTransactions
	d.GArbQueueCycles += s.GArbQueueCycles
	d.DirLookups += s.DirLookups
	d.DirUnnecessary += s.DirUnnecessary
	d.DirCommits += s.DirCommits
	d.WSigNodeSends += s.WSigNodeSends
	d.L1Hits += s.L1Hits
	d.L1Misses += s.L1Misses
	d.L2Hits += s.L2Hits
	d.L2Misses += s.L2Misses
	for i := range s.TrafficBytes {
		d.TrafficBytes[i] += s.TrafficBytes[i]
		d.Messages[i] += s.Messages[i]
	}
}

// endToEnd fills the end-to-end metrics of a cell workload, and its wall
// throughput ops_per_s. An operation is one cell (one simulation, plus its
// history check in sc-check); its time is the CPU time of the worker
// thread that ran it, which leaves out time the hypervisor steals from the
// virtual machine (on a shared host that moved wall times by 20 to 50%
// between runs). The rate and the percentiles are taken per pass and
// reported as the median over passes: every pass runs the same cells, so a
// pass's percentiles do not depend on how many passes fit the budget, and
// one disturbed pass does not set the result.
func (t *cellTotals) endToEnd(r *result, passes []*pass, cpuMs float64) {
	var rates, p50s, p95s []float64
	for _, p := range passes {
		var lat []float64
		for i := range p.outs {
			if o := &p.outs[i]; o.ok() {
				lat = append(lat, float64(o.cpuNs)/1e6)
			}
		}
		rates = append(rates, ratio(float64(len(lat)), float64(p.wallNs)/1e9))
		p50s = append(p50s, percentile(lat, 50))
		p95s = append(p95s, percentile(lat, 95))
	}
	r.m["ops_per_s"] = percentile(rates, 50)
	r.m["cpu_ms_per_op"] = ratio(cpuMs, float64(t.ok))
	r.m["req_ms_p50"] = percentile(p50s, 50)
	r.m["req_ms_p95"] = percentile(p95s, 50)
}

// layers fills the per-layer metrics computed from simulation results and
// host timings; profile shares and spans are filled by the caller.
func (t *cellTotals) layers(r *result) {
	st := &t.st
	instrs := float64(t.instrs)
	r.m["sim_minstr_per_s"] = ratio(instrs/1e6, float64(t.runNs)/1e9)
	r.m["sim_ipc"] = ratio(instrs, float64(t.cycles))
	r.m["sim.events_per_kinstr"] = ratio(float64(t.events), instrs/1e3)
	r.m["sim.ns_per_event"] = ratio(float64(t.simWallNs), float64(t.events))
	r.m["proc.squash_pct"] = 100 * ratio(float64(st.SquashedInstrs), float64(st.SquashedInstrs+st.CommittedInstrs))
	r.m["sig.aliased_squash_frac"] = ratio(float64(st.SquashesAliased), float64(st.Squashes))
	r.m["arbiter.deny_frac"] = ratio(float64(st.CommitDenies), float64(st.CommitRequests))
	r.m["arbiter.garb_share"] = ratio(float64(st.GArbTransactions), float64(st.CommitRequests))
	r.m["arbiter.garb_queue_cycles_per_commit"] = ratio(float64(st.GArbQueueCycles), float64(st.CommitRequests))
	r.m["directory.lookups_per_commit"] = ratio(float64(st.DirLookups), float64(st.DirCommits))
	r.m["directory.useful_lookup_frac"] = ratio(float64(st.DirLookups-st.DirUnnecessary), float64(st.DirLookups))
	r.m["directory.wsig_sends_per_commit"] = ratio(float64(st.WSigNodeSends), float64(st.DirCommits))
	r.m["cache.l1_miss_frac"] = ratio(float64(st.L1Misses), float64(st.L1Hits+st.L1Misses))
	r.m["cache.l2_miss_frac"] = ratio(float64(st.L2Misses), float64(st.L2Hits+st.L2Misses))
	var bytes, msgs uint64
	for i := range st.TrafficBytes {
		bytes += st.TrafficBytes[i]
		msgs += st.Messages[i]
	}
	r.m["network.bytes_per_instr"] = ratio(float64(bytes), instrs)
	r.m["network.msgs_per_kinstr"] = ratio(float64(msgs), instrs/1e3)
	r.m["core.failed_cell_s"] = float64(t.failedHostNs) / 1e9
	r.m["core.run_overhead_ms"] = ratio(float64(t.runNs-t.simWallNs)/1e6, float64(t.ok))
	r.m["experiments.worker_busy_frac"] = ratio(float64(t.busyNs), float64(t.wallNs)*float64(t.workers))
}

// count adds the passes' operations to the result's attempted and failed
// counts and reports every incorrect output.
func count(r *result, passes []*pass) {
	for _, p := range passes {
		for i := range p.outs {
			o := &p.outs[i]
			r.attempted++
			if o.err != nil {
				r.noteFailure(o.err.Error())
			}
			if !o.ok() {
				r.failed++
			}
			if o.wrong != "" {
				r.addWrong("%s", o.wrong)
			}
		}
	}
}

// checkHashes compares every successful cell's determinism hash with the
// reference for its workload and simulation seed.
func checkHashes(r *result, workload string, passes []*pass) {
	var checked, changed int
	for _, p := range passes {
		for i := range p.outs {
			o := &p.outs[i]
			if !o.ok() {
				continue
			}
			c := &p.cells[i]
			want, ok := refHash(workload, c.cfg.Seed, c.id())
			if !ok {
				continue
			}
			checked++
			if o.hash != want {
				changed++
			}
		}
	}
	r.m["core.hash_checked_cells"] = float64(checked)
	r.m["core.hash_changed_cells"] = float64(changed)
	r.info["hash_changed_cells"] = changed
}

// rtSample reads the runtime counters behind runtime.gc_cpu_frac and
// runtime.alloc_mb_per_minstr.
type rtSample struct{ gcCPU, totalCPU, idleCPU, allocBytes float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return rtSample{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

func runtimeLayers(r *result, a, b rtSample, minstr float64) {
	busy := (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU)
	r.m["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, busy)
	r.m["runtime.alloc_mb_per_minstr"] = ratio((b.allocBytes-a.allocBytes)/(1<<20), minstr)
}

// cellWorkload describes a cell-based workload to runCellWorkload.
type cellWorkload struct {
	name  string
	cells func() []cell
	// finish adds workload-specific metrics from the measured passes.
	finish func(r *result, passes []*pass, sp *spans)
	// traced, when set, runs after the traced half of a -trace 1 run.
	traced func(r *result, runners []*bulksc.Runner)
}

// runCellWorkload sets up the worker pool, then runs passes for the budget.
// Untraced, it reports the end-to-end metrics. Traced, it runs an untraced
// half and a traced half (CPU profile and spans) and reports the per-layer
// metrics from the traced half, with the latency overhead between the two.
func runCellWorkload(c runCfg, w cellWorkload) (*result, error) {
	r := newResult()
	var sp *spans
	if c.trace {
		sp = newSpans()
	}
	runners, err := setupRunners(r, sp, w.cells()[0].cfg)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(c.seconds * float64(time.Second))
	if !c.trace {
		cpu0 := cpuMs()
		passes := runPasses(runners, w.cells, budget, nil)
		cpu := cpuMs() - cpu0
		sumPasses(passes, len(runners)).endToEnd(r, passes, cpu)
		count(r, passes)
		checkHashes(r, w.name, passes)
		r.info["passes"] = len(passes)
		return r, nil
	}
	plain := runPasses(runners, w.cells, budget/2, nil)
	rt0 := readRuntime()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	traced := runPasses(runners, w.cells, budget/2, sp)
	sh, err := prof.shares()
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	t := sumPasses(traced, len(runners))
	t.layers(r)
	profileLayers(r, sh)
	runtimeLayers(r, rt0, rt1, float64(t.instrs)/1e6)
	r.m["workload.gen_ms"] = float64(sp.get("workload.gen").ns) / 1e6 / float64(len(traced))
	base := sumPasses(plain, len(runners))
	base.endToEnd(r, plain, 0) // for ops_per_s, reported with the layers
	r.m["trace.overhead_pct"] = 100 * (ratio(percentile(t.lat, 50), percentile(base.lat, 50)) - 1)
	all := append(plain, traced...)
	count(r, all)
	checkHashes(r, w.name, all)
	w.finish(r, traced, sp)
	if w.traced != nil {
		w.traced(r, runners)
	}
	r.info["passes"] = len(all)
	return r, nil
}
