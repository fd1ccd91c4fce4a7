package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"bulksc"
)

func tinyParams() Params {
	return Params{Apps: []string{"water-sp", "radix"}, Work: 15000, Seed: 1}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Fatalf("GeoMean(1,4) = %v, want 2", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
}

func TestFig9SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rows, err := Fig9(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Speedup["rc"] != 1.0 {
			t.Errorf("%s: RC not normalized to 1 (%v)", r.App, r.Speedup["rc"])
		}
		if r.Speedup["sc"] >= 1.0 {
			t.Errorf("%s: SC (%v) not slower than RC", r.App, r.Speedup["sc"])
		}
		if r.Speedup["dypvt"] <= r.Speedup["sc"] {
			t.Errorf("%s: BSC_dypvt (%v) not faster than SC (%v)", r.App, r.Speedup["dypvt"], r.Speedup["sc"])
		}
	}
	out := FormatFig9(rows)
	if !strings.Contains(out, "SP2-G.M.") {
		t.Error("formatted output missing geomean row")
	}
}

func TestTable3SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rows, err := Table3(Params{Apps: []string{"water-sp"}, Work: 20000})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.SquashedBase < r.SquashedDypvt {
		t.Errorf("base squash %.2f%% below dypvt %.2f%% — W pollution effect missing",
			r.SquashedBase, r.SquashedDypvt)
	}
	if r.PrivWriteSet <= 1 {
		t.Errorf("water-sp private write set %.1f implausible", r.PrivWriteSet)
	}
	if !strings.Contains(FormatTable3(rows), "water-sp") {
		t.Error("format missing app")
	}
}

func TestTable4SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rows, err := Table4(Params{Apps: []string{"radix"}, Work: 20000})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.EmptyWSigPct < 0 || r.EmptyWSigPct > 100 {
		t.Errorf("EmptyWSigPct out of range: %v", r.EmptyWSigPct)
	}
	if r.LookupsPerCommit <= 0 {
		t.Error("radix commits produced no directory lookups")
	}
	if !strings.Contains(FormatTable4(rows), "radix") {
		t.Error("format missing app")
	}
}

func TestFig11SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rows, err := Fig11(Params{Apps: []string{"water-sp"}, Work: 20000})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Total["R"] != 1.0 {
		t.Errorf("RC total not normalized: %v", r.Total["R"])
	}
	// BulkSC adds signature traffic: WrSig must be nonzero for B, zero for R.
	if r.Bytes["R"]["WrSig"] != 0 {
		t.Error("RC shows W-signature traffic")
	}
	if r.Bytes["B"]["WrSig"] == 0 {
		t.Error("BulkSC shows no W-signature traffic")
	}
	// The RSig optimization must reduce RdSig bytes (N ≥ B).
	if r.Bytes["N"]["RdSig"] < r.Bytes["B"]["RdSig"] {
		t.Errorf("RSig optimization increased RdSig traffic: N=%v B=%v",
			r.Bytes["N"]["RdSig"], r.Bytes["B"]["RdSig"])
	}
	if !strings.Contains(FormatFig11(rows), "water-sp") {
		t.Error("format missing app")
	}
}

func TestArbScaleSmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rows, err := ArbScale(Params{Apps: []string{"water-sp"}, Work: 15000}, 8, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Speedup[1] != 1.0 {
		t.Errorf("baseline arbiter count not normalized: %v", r.Speedup[1])
	}
	if r.Cycles[2] == 0 {
		t.Error("2-arbiter run missing")
	}
	if !strings.Contains(FormatArbScale(rows, []int{1, 2}), "water-sp") {
		t.Error("format missing app")
	}
}

// TestWarmReuseMatchesCold pins the Runner contract at the sweep level: a
// mixed sweep — heterogeneous models via Fig9, then heterogeneous machine
// shapes via ArbScale (different processor and arbiter counts forcing the
// module-rebuild path) — run through warm per-worker Runners must produce
// results identical to the same sweep with a fresh machine per simulation.
// Running under -race (scripts/check.sh) additionally checks the worker
// pool and the program-generation memoization for data races.
func TestWarmReuseMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep comparison")
	}
	warm := tinyParams()
	warm.Parallelism = 2
	cold := warm
	cold.Cold = true

	wRows, err := Fig9(warm)
	if err != nil {
		t.Fatal(err)
	}
	cRows, err := Fig9(cold)
	if err != nil {
		t.Fatal(err)
	}
	if FormatFig9(wRows) != FormatFig9(cRows) {
		t.Errorf("Fig9 warm and cold sweeps disagree:\nwarm:\n%s\ncold:\n%s",
			FormatFig9(wRows), FormatFig9(cRows))
	}

	wArb, err := ArbScale(warm, 8, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cArb, err := ArbScale(cold, 8, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if FormatArbScale(wArb, []int{1, 2}) != FormatArbScale(cArb, []int{1, 2}) {
		t.Errorf("ArbScale warm and cold sweeps disagree:\nwarm:\n%s\ncold:\n%s",
			FormatArbScale(wArb, []int{1, 2}), FormatArbScale(cArb, []int{1, 2}))
	}
}

func TestVariantNamesAgree(t *testing.T) {
	for _, v := range Fig9Variants() {
		_ = bulksc.Variant("fft", v) // panics on unknown names
	}
}

func TestSigSpaceSmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rows, err := SigSpace(Params{Apps: []string{"water-sp"}, Work: 15000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SigGeometries()) {
		t.Fatalf("rows = %d, want one per geometry", len(rows))
	}
	for _, r := range rows {
		if r.SpeedupVsRC <= 0 {
			t.Errorf("%s/%s: nonpositive speedup", r.App, r.Geometry)
		}
	}
	if !strings.Contains(FormatSigSpace(rows), "water-sp") {
		t.Error("format missing app")
	}
}

func TestScalingSmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	apps := []string{"radix", "fft"}
	points, err := Scaling(Params{Apps: apps, Work: 8000}, []int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(apps)*2 {
		t.Fatalf("points = %d, want %d", len(points), len(apps)*2)
	}
	for _, pt := range points {
		if pt.CommittedInstrs == 0 || pt.Cycles == 0 {
			t.Errorf("%s/%d: empty run", pt.App, pt.Procs)
		}
		if pt.Procs == 64 && pt.Arbiters != bulksc.DefaultArbitersFor(64) {
			t.Errorf("%s/64: arbiters = %d, want default %d", pt.App, pt.Arbiters, bulksc.DefaultArbitersFor(64))
		}
		if pt.Procs == 64 && pt.GArbSharePct == 0 {
			t.Errorf("%s/64: no G-arbiter involvement at 8 arbiters", pt.App)
		}
		if pt.BytesPerInstr <= 0 {
			t.Errorf("%s/%d: no traffic recorded", pt.App, pt.Procs)
		}
	}
	out := FormatScaling(points)
	if !strings.Contains(out, "radix") {
		t.Error("format missing app")
	}
	if !strings.Contains(out, "garb%") {
		t.Error("format missing header")
	}
}

func TestScalingRejectsOversizedMachine(t *testing.T) {
	if _, err := Scaling(Params{Work: 1000}, []int{bulksc.MaxProcs + 1}); err == nil {
		t.Fatal("oversized proc count accepted")
	}
}

// TestDegenerateRatiosFinite pins the NaN/Inf satellite fix: a procs=1
// machine never crosses arbiter ranges (no G-arbiter transactions, often
// no commit requests from remote conflicts), so every per-X ratio in the
// scaling and ablation tables hits a zero denominator somewhere. All
// float metrics must stay finite — encoding/json refuses to marshal NaN
// or Inf, so one degenerate cell would break a sweepd result outright.
func TestDegenerateRatiosFinite(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	finite := func(name string, v float64) {
		t.Helper()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want finite", name, v)
		}
	}

	points, err := Scaling(Params{Apps: []string{"radix"}, Work: 5000}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d, want 1", len(points))
	}
	pt := points[0]
	for name, v := range map[string]float64{
		"SquashedPct": pt.SquashedPct, "AvgPendingW": pt.AvgPendingW,
		"NonEmptyWPct": pt.NonEmptyWPct, "GArbSharePct": pt.GArbSharePct,
		"GArbQueuedPer1k": pt.GArbQueuedPer1k, "BytesPerInstr": pt.BytesPerInstr,
		"MsgsPer1kInstr": pt.MsgsPer1kInstr,
	} {
		finite("ScalingPoint."+name, v)
	}
	if _, err := json.Marshal(points); err != nil {
		t.Errorf("scaling points do not marshal: %v", err)
	}

	rows, err := ArbScale(Params{Apps: []string{"radix"}, Work: 5000}, 1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for n, v := range r.Speedup {
			finite(fmt.Sprintf("ArbScale.Speedup[%d]", n), v)
		}
		for n, v := range r.GArbShare {
			finite(fmt.Sprintf("ArbScale.GArbShare[%d]", n), v)
		}
	}
	if _, err := json.Marshal(rows); err != nil {
		t.Errorf("arb-scale rows do not marshal: %v", err)
	}
}

// TestFaultReportCellsNameCampaign: the fault report runs one matrix per
// campaign, but its cells must read as one sweep. Each cell is keyed by
// its campaign, so equal results under two campaigns stay distinct cells
// (a job hash folding (app, key, result) would otherwise cancel them),
// and Index/Total count across the whole report.
func TestFaultReportCellsNameCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	apps := []string{"radix", "lu"}
	var cells []Cell
	p := Params{Apps: apps, Work: 1500, Seed: 1, Parallelism: 1,
		OnCell: func(c Cell) { cells = append(cells, c) }}
	if _, err := FaultReport(p); err != nil {
		t.Fatal(err)
	}
	campaigns := FaultCampaignKeys()
	total := len(campaigns) * len(apps)
	if len(cells) != total {
		t.Fatalf("cells = %d, want %d", len(cells), total)
	}
	seen := make(map[string]bool)
	for i, c := range cells {
		id := c.App + "/" + c.Key
		if seen[id] {
			t.Errorf("cell %s reported twice", id)
		}
		seen[id] = true
		if c.Index != i || c.Total != total {
			t.Errorf("cell %s: Index/Total = %d/%d, want %d/%d", id, c.Index, c.Total, i, total)
		}
	}
	for _, campaign := range campaigns {
		for _, app := range apps {
			if id := app + "/" + campaign + "/dypvt"; !seen[id] {
				t.Errorf("no cell %s", id)
			}
		}
	}
}
