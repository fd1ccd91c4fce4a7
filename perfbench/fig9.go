package main

import (
	"fmt"
	"sync"
	"time"

	"bulksc"
	"bulksc/experiments"
)

// fig9Work is the per-thread instruction budget of the Figure 9 sweep, the
// size BENCH_core.json's fig9 rows use.
const fig9Work = 60_000

// fig9Cells is the paper's Figure 9 matrix: every app under every variant
// on 8 processors, the replay checker on for the Bulk cells and the
// witness off, exactly as experiments.Fig9 configures it except for the
// replay checker.
func fig9Cells(seed int64, short bool) func() []cell {
	work := fig9Work
	if short {
		work = 2000
	}
	return func() []cell {
		var cells []cell
		for _, app := range bulksc.Apps() {
			for _, v := range experiments.Fig9Variants() {
				cfg := bulksc.Variant(app, v)
				cfg.Work = work
				cfg.Seed = simSeedFor(seed)
				cfg.CheckSC = cfg.Model == bulksc.ModelBulk
				cfg.Witness = false
				cells = append(cells, cell{app: app, key: v, cfg: cfg})
			}
		}
		return cells
	}
}

func runFig9(c runCfg) (*result, error) {
	return runCellWorkload(c, cellWorkload{
		name:   "fig9-8p",
		cells:  fig9Cells(c.seed, c.short),
		finish: fig9Finish,
		traced: func(r *result, runners []*bulksc.Runner) {
			warmOverCold(r, runners, fig9Cells(c.seed, c.short)())
		},
	})
}

// fig9Finish reports the paper's headline, the SPLASH-2 geomean of RC over
// BSC_dypvt cycles, from the first pass whose cells all succeeded, and the
// replay checker's verification rate.
func fig9Finish(r *result, passes []*pass, _ *spans) {
	var verified uint64
	var wallNs int64
	for _, p := range passes {
		wallNs += p.wallNs
		for i := range p.outs {
			verified += p.outs[i].verified
		}
	}
	r.m["verified_kops_per_s"] = ratio(float64(verified)/1e3, float64(wallNs)/1e9)
	for _, p := range passes {
		cycles := make(map[string]map[string]float64)
		complete := true
		for i := range p.outs {
			if !p.outs[i].ok() {
				complete = false
				break
			}
			c := &p.cells[i]
			if cycles[c.app] == nil {
				cycles[c.app] = make(map[string]float64)
			}
			cycles[c.app][c.key] = float64(p.outs[i].res.Cycles)
		}
		if !complete {
			continue
		}
		var rows []experiments.Fig9Row
		for _, app := range bulksc.Apps() {
			row := experiments.Fig9Row{App: app, Speedup: make(map[string]float64)}
			for _, v := range experiments.Fig9Variants() {
				row.Speedup[v] = ratio(cycles[app]["rc"], cycles[app][v])
			}
			rows = append(rows, row)
		}
		r.m["bsc_vs_rc"] = experiments.Fig9GeoMeanRow(rows).Speedup["dypvt"]
		return
	}
}

// warmOverCold runs every cell twice, cold (bulksc.RunProgram on a fresh
// machine) and warm (the worker's Runner), alternating which goes first,
// and reports the median warm/cold host-time ratio with its quartiles. The
// two runs must agree bit for bit.
func warmOverCold(r *result, runners []*bulksc.Runner, cells []cell) {
	ratios := make([]float64, len(cells))
	wrong := make([]string, len(cells))
	var (
		progs progMemo
		wg    sync.WaitGroup
		next  = make(chan int)
	)
	for _, rn := range runners {
		wg.Add(1)
		go func(rn *bulksc.Runner) {
			defer wg.Done()
			for i := range next {
				c := &cells[i]
				prog, err := progs.get(nil, &c.cfg)
				if err != nil {
					wrong[i] = fmt.Sprintf("%s: generate: %v", c.id(), err)
					continue
				}
				timed := func(warm bool) (*bulksc.Result, time.Duration, error) {
					t0 := time.Now()
					var res *bulksc.Result
					var err error
					if warm {
						res, err = rn.RunProgram(c.cfg, prog)
					} else {
						res, err = bulksc.RunProgram(c.cfg, prog)
					}
					return res, time.Since(t0), err
				}
				var wres, cres *bulksc.Result
				var wd, cd time.Duration
				var werr, cerr error
				if i%2 == 0 {
					cres, cd, cerr = timed(false)
					wres, wd, werr = timed(true)
				} else {
					wres, wd, werr = timed(true)
					cres, cd, cerr = timed(false)
				}
				switch {
				case werr != nil || cerr != nil:
					wrong[i] = fmt.Sprintf("%s: warm/cold run error: %v / %v", c.id(), werr, cerr)
				case wres.DeterminismHash() != cres.DeterminismHash():
					wrong[i] = fmt.Sprintf("%s: warm and cold runs differ", c.id())
				default:
					ratios[i] = float64(wd) / float64(cd)
				}
			}
		}(rn)
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	var ok []float64
	for i, w := range wrong {
		if w != "" {
			r.addWrong("%s", w)
			continue
		}
		ok = append(ok, ratios[i])
	}
	r.m["core.warm_over_cold"] = percentile(ok, 50)
	r.m["core.warm_over_cold_q1"], r.m["core.warm_over_cold_q3"] = quartiles(ok)
	r.info["warm_cold_pairs"] = len(ok)
}
