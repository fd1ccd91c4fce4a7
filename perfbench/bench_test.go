package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"bulksc"
	"bulksc/internal/sweepsrv"
)

type benchSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode keeps BENCHMARK.json and the metric tables in step.
func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, have)
	}
	check := func(kind string, spec []struct{ Name, Unit, Better string }, code []string) {
		if len(spec) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(spec), len(code))
			return
		}
		for i, m := range spec {
			if m.Name != code[i] || m.Unit != unit[code[i]] {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, m.Name, m.Unit, code[i], unit[code[i]])
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

// TestShortRunsEmitEveryMetric runs each workload in short mode, untraced
// and traced, through the command-line entry point and checks the result
// line: correct outputs, every promised metric with its unit, and no zero
// end-to-end metric.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"-workload", w.Name, "-seed", "3", "-seconds", "1", "-trace", trace, "-short"}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep reportOut
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d; stderr: %s", rep.Correct, rep.Attempted, rep.Failed, errb.String())
				}
				want := s.EndToEnd
				if trace == "1" {
					want = s.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				var info struct {
					Info map[string]any
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
					t.Fatal(err)
				}
				for _, k := range []string{"seed", "heldout_seed", "host"} {
					if _, ok := info.Info[k]; !ok {
						t.Errorf("info line lacks %s", k)
					}
				}
			})
		}
	}
}

// TestRefusedRequestCountsAsFailed forces a request sweepd must refuse (a
// machine size outside the envelope) and checks it is counted, not dropped.
func TestRefusedRequestCountsAsFailed(t *testing.T) {
	bad := sweepReq{body: sweepsrv.Request{Exp: "scaling", Apps: []string{"radix"}, Procs: []int{bulksc.MaxProcs + 1}}, repeatOf: -1}
	r, err := runSweepd(runCfg{seed: 1, seconds: 1, short: true, extraRequests: []sweepReq{bad}})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 || r.attempted != r.info["requests"].(int) {
		t.Errorf("attempted %d (scheduled %v), failed %d; want the one refused request failed",
			r.attempted, r.info["requests"], r.failed)
	}
	if len(r.wrong) != 0 {
		t.Errorf("wrong outputs: %v", r.wrong)
	}
}

// TestFailedCellCountsAsFailed runs a pass with a cell that cannot run (an
// unknown application) and checks it is counted as attempted and failed,
// with its host time reported and its throughput excluded.
func TestFailedCellCountsAsFailed(t *testing.T) {
	cells := scaleCells(1, true)()
	bad := cells[0]
	bad.cfg.App = "no-such-app"
	cells = append(cells, bad)
	p := runPass(newRunners(2, nil), cells, nil)
	r := newResult()
	count(r, []*pass{p})
	if r.attempted != len(cells) || r.failed != 1 {
		t.Errorf("attempted %d failed %d, want %d and 1", r.attempted, r.failed, len(cells))
	}
	tot := sumPasses([]*pass{p}, 2)
	if tot.ok != len(cells)-1 || tot.failedHostNs <= 0 {
		t.Errorf("ok %d failed host ns %d", tot.ok, tot.failedHostNs)
	}
}

// TestReferenceCoversEveryCell checks that ref_hashes.json holds a hash for
// every cell any workload seed produces, except the cells known to fail.
func TestReferenceCoversEveryCell(t *testing.T) {
	for name, mk := range map[string]func(int64, bool) func() []cell{
		"fig9-8p":    fig9Cells,
		"scale-256p": scaleCells,
		"sc-check":   scCheckCells,
	} {
		for seed := int64(-3); seed < int64(len(simSeeds)); seed++ {
			for _, c := range mk(seed, false)() {
				if _, ok := refHash(name, c.cfg.Seed, c.id()); !ok && c.id() != "ocean/dypvt-256" {
					t.Errorf("%s seed %d: no reference hash for %s", name, seed, c.id())
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if p := percentile([]float64{1, 2, 3, 4}, 50); p != 2.5 {
		t.Errorf("median = %v, want 2.5", p)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bulksc/internal/sig.(*Bloom).Add":          "sig",
		"bulksc/internal/history/gk.checkChunks":    "gk",
		"bulksc/internal/core.(*machine).run.func1": "core",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Map).Get":          "runtime",
		"encoding/json.(*decodeState).object":       "encoding/json",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
