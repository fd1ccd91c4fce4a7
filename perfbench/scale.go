package main

import "bulksc"

// scaleWork is the per-thread budget of the 256-processor cells, the size
// BENCH_core.json's scaling curve uses (its Fig9 budget / 10).
const scaleWork = 6_000

// scaleApps: ocean trips the liveness watchdog at 256 processors and stays
// in the list so that the failure, and any later fix, shows; radix has the
// hot shared histogram; sjbb2k the highest squash rate and traffic. Ocean
// is the longest cell, so it goes first: on two workers it then runs beside
// the other two instead of after them.
var scaleApps = []string{"ocean", "radix", "sjbb2k"}

// scaleCells configures BSC_dypvt at 256 processors with the arbiter tier
// and G-arbiter sharding experiments.Scaling pairs with that size.
func scaleCells(seed int64, short bool) func() []cell {
	procs, work := 256, scaleWork
	if short {
		procs, work = 32, 500
	}
	return func() []cell {
		var cells []cell
		for _, app := range scaleApps {
			cfg := bulksc.Variant(app, "dypvt")
			cfg.CheckSC = false
			cfg.Witness = false
			cfg.Procs = procs
			cfg.NumArbiters = bulksc.DefaultArbitersFor(procs)
			cfg.GArbShards = bulksc.DefaultGArbShardsFor(cfg.NumArbiters)
			cfg.Work = work
			cfg.Seed = simSeedFor(seed)
			cells = append(cells, cell{app: app, key: "dypvt-256", cfg: cfg})
		}
		return cells
	}
}

func runScale(c runCfg) (*result, error) {
	return runCellWorkload(c, cellWorkload{
		name:   "scale-256p",
		cells:  scaleCells(c.seed, c.short),
		finish: func(*result, []*pass, *spans) {},
	})
}
