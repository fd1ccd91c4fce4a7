package bulksc_test

// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (§7). Each benchmark runs the corresponding experiment sweep
// once per iteration and reports the headline scalars as custom metrics;
// run with
//
//	go test -bench=. -benchmem -benchtime=1x
//
// and use cmd/sweep for the full formatted tables.

import (
	"testing"

	"bulksc"
	"bulksc/experiments"
)

// benchWork keeps a full -bench=. session within minutes while leaving
// enough post-warmup window for steady statistics.
const benchWork = 60_000

func benchParams() experiments.Params {
	return experiments.Params{Work: benchWork, Seed: 1}
}

// BenchmarkFig9 regenerates Figure 9 and reports the SPLASH-2 geometric
// means (performance normalized to RC) for the headline configurations.
// Its allocs/op and bytes/op are those of a warm sweep: one reused machine
// per worker and memoized workload generation.
func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		gm := experiments.Fig9GeoMeanRow(rows)
		b.ReportMetric(gm.Speedup["sc"], "SC/RC")
		b.ReportMetric(gm.Speedup["sc++"], "SC++/RC")
		b.ReportMetric(gm.Speedup["base"], "BSCbase/RC")
		b.ReportMetric(gm.Speedup["dypvt"], "BSCdypvt/RC")
		b.ReportMetric(gm.Speedup["exact"], "BSCexact/RC")
		b.ReportMetric(gm.Speedup["stpvt"], "BSCstpvt/RC")
		if i == 0 {
			b.Logf("\n%s", experiments.FormatFig9(rows))
		}
	}
}

// BenchmarkFig10 regenerates Figure 10 (chunk-size sensitivity).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		var k1, k4, k4e []float64
		for _, r := range rows {
			k1 = append(k1, r.Speedup["1000"])
			k4 = append(k4, r.Speedup["4000"])
			k4e = append(k4e, r.Speedup["4000-exact"])
		}
		b.ReportMetric(experiments.GeoMean(k1), "chunk1000/RC")
		b.ReportMetric(experiments.GeoMean(k4), "chunk4000/RC")
		b.ReportMetric(experiments.GeoMean(k4e), "chunk4000exact/RC")
		if i == 0 {
			b.Logf("\n%s", experiments.FormatFig10(rows))
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (BulkSC characterization) and
// reports suite-average squash rates per configuration.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		var exact, dypvt, base, priv float64
		for _, r := range rows {
			exact += r.SquashedExact
			dypvt += r.SquashedDypvt
			base += r.SquashedBase
			priv += r.PrivWriteSet
		}
		n := float64(len(rows))
		b.ReportMetric(exact/n, "sq-exact-%")
		b.ReportMetric(dypvt/n, "sq-dypvt-%")
		b.ReportMetric(base/n, "sq-base-%")
		b.ReportMetric(priv/n, "privW-lines")
		if i == 0 {
			b.Logf("\n%s", experiments.FormatTable3(rows))
		}
	}
}

// BenchmarkTable4 regenerates Table 4 (commit & coherence).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		var emptyW, rsig, nodes float64
		for _, r := range rows {
			emptyW += r.EmptyWSigPct
			rsig += r.RSigRequiredPct
			nodes += r.NodesPerWSig
		}
		n := float64(len(rows))
		b.ReportMetric(emptyW/n, "emptyW-%")
		b.ReportMetric(rsig/n, "RSigRequired-%")
		b.ReportMetric(nodes/n, "nodes/Wsig")
		if i == 0 {
			b.Logf("\n%s", experiments.FormatTable4(rows))
		}
	}
}

// BenchmarkFig11 regenerates Figure 11 (traffic) and reports the suite
// geomean of BSC_dypvt's traffic overhead over RC — the paper's "5-13% on
// average" claim.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		var totals, noRSig []float64
		for _, r := range rows {
			totals = append(totals, r.Total["B"])
			noRSig = append(noRSig, r.Total["N"])
		}
		b.ReportMetric(experiments.GeoMean(totals), "BSCdypvt-traffic/RC")
		b.ReportMetric(experiments.GeoMean(noRSig), "noRSig-traffic/RC")
		if i == 0 {
			b.Logf("\n%s", experiments.FormatFig11(rows))
		}
	}
}

// BenchmarkArbiterScaling runs the §4.2.3 distributed-arbiter ablation on
// a 16-core machine.
func BenchmarkArbiterScaling(b *testing.B) {
	counts := []int{1, 4}
	p := benchParams()
	p.Apps = []string{"barnes", "ocean", "radix", "water-sp", "sjbb2k"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ArbScale(p, 16, counts)
		if err != nil {
			b.Fatal(err)
		}
		var sp []float64
		for _, r := range rows {
			sp = append(sp, r.Speedup[4])
		}
		b.ReportMetric(experiments.GeoMean(sp), "4arb/1arb")
		if i == 0 {
			b.Logf("\n%s", experiments.FormatArbScale(rows, counts))
		}
	}
}

// BenchmarkSigSpace runs the §6 signature design-space ablation on the
// aliasing-sensitive applications.
func BenchmarkSigSpace(b *testing.B) {
	p := benchParams()
	p.Apps = []string{"radix", "water-sp"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SigSpace(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatSigSpace(rows))
		}
	}
}

// BenchmarkApp runs each application once on the preferred configuration,
// reporting cycles and squash rate — the per-app entry points behind
// Figure 9's BSC_dypvt bars.
func BenchmarkApp(b *testing.B) {
	for _, app := range bulksc.Apps() {
		app := app
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := bulksc.DefaultConfig(app)
				cfg.Work = benchWork
				cfg.CheckSC = false
				cfg.Witness = false
				res, err := bulksc.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "cycles")
				b.ReportMetric(res.Stats.SquashedPct(), "squashed-%")
			}
		})
	}
}
