package core

import (
	"strings"
	"testing"

	"bulksc/internal/workload"
)

// The warm-reuse golden harness: the whole golden matrix is pushed
// back-to-back through ONE Runner — heterogeneous models, signature kinds,
// arbiter counts and private-data options in sequence on the same machine
// arena — and every hash must still match the cold golden table. This is
// the strongest statement of the warm-machine contract: if any subsystem's
// Reset forgot a tag array, a W-list entry, a store-buffer word or a grown
// table's shape, some cell downstream of the leak would drift.

func runGoldenWarm(t testing.TB, r *Runner, app, label string, mut func(c *Config)) uint64 {
	cfg := goldenConfig(app)
	mut(&cfg)
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", goldenKey(app, label), err)
	}
	if len(res.SCViolations) > 0 {
		t.Fatalf("%s: SC violations: %v", goldenKey(app, label), res.SCViolations)
	}
	if label != "rc" && label != "sc++" && len(res.WitnessViolations) > 0 {
		t.Fatalf("%s: witness violations: %v", goldenKey(app, label), res.WitnessViolations)
	}
	return res.DeterminismHash()
}

// TestGoldenWarmReuse runs every (app, model) golden cell through a single
// Runner, in an order chosen to maximize cross-run interference (model
// changes between consecutive runs for each app), and checks each hash
// against the cold golden table.
func TestGoldenWarmReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("warm golden sweep skipped in -short")
	}
	if len(goldenHashes) == 0 {
		t.Fatal("golden table empty; run -update-golden first")
	}
	r := NewRunner()
	models := goldenModels()
	for _, app := range workload.All() {
		for _, m := range models {
			k := goldenKey(app, m.Label)
			want, ok := goldenHashes[k]
			if !ok {
				t.Errorf("%s: no golden hash recorded; run -update-golden", k)
				continue
			}
			got := runGoldenWarm(t, r, app, m.Label, m.Mut)
			if got != want {
				t.Fatalf("warm-reuse drift at %s:\n  cold golden %#016x\n  warm        %#016x\n"+
					"a previous run's state leaked through a machine Reset", k, want, got)
			}
		}
	}
}

// TestGoldenWarmWitness runs every pinned witness cell through a single
// Runner and checks each WitnessHash against the cold witness table: the
// checker's own arenas (word map, overlay, per-proc program-order state)
// are reused across runs too, and a stale observation would change audit
// counts or findings.
func TestGoldenWarmWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("warm witness sweep skipped in -short")
	}
	if len(goldenWitnessHashes) == 0 {
		t.Fatal("witness golden table empty; run -update-golden-witness first")
	}
	r := NewRunner()
	for _, app := range witnessGoldenApps() {
		for _, m := range witnessGoldenModels() {
			for _, seed := range witnessGoldenSeeds() {
				k := witnessGoldenKey(app, m.Label, seed)
				want, ok := goldenWitnessHashes[k]
				if !ok {
					t.Errorf("%s: no witness golden hash recorded", k)
					continue
				}
				cfg := goldenConfig(app)
				cfg.Seed = seed
				m.Mut(&cfg)
				res, err := r.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", k, err)
				}
				if len(res.WitnessViolations) > 0 {
					t.Fatalf("%s: witness violations: %v", k, res.WitnessViolations)
				}
				if res.WitnessAccesses == 0 {
					t.Fatalf("%s: witness audited no accesses", k)
				}
				if strings.HasPrefix(m.Label, "bulk-") && res.WitnessChunks == 0 {
					t.Fatalf("%s: witness audited no chunks", k)
				}
				if got := res.WitnessHash(); got != want {
					t.Fatalf("warm witness drift at %s:\n  cold golden %#016x\n  warm        %#016x",
						k, want, got)
				}
			}
		}
	}
}

// TestRunnerResultIsolation guards the no-aliasing contract: a Result
// returned by a warm Runner must stay intact after the Runner is reused.
func TestRunnerResultIsolation(t *testing.T) {
	r := NewRunner()
	cfg := goldenConfig("radix")
	first, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := first.DeterminismHash()
	cycles, chunks := first.Cycles, first.Stats.Chunks
	ncommits := len(first.Commits)
	// Reuse the runner for a different app/model; the first Result must not
	// be disturbed.
	cfg2 := goldenConfig("fft")
	cfg2.Model = ModelSC
	if _, err := r.Run(cfg2); err != nil {
		t.Fatal(err)
	}
	if first.DeterminismHash() != h {
		t.Fatalf("reusing the Runner changed an already-returned Result's hash")
	}
	if first.Cycles != cycles || first.Stats.Chunks != chunks || len(first.Commits) != ncommits {
		t.Fatalf("reusing the Runner mutated an already-returned Result")
	}
	for i, rec := range first.Commits {
		if rec.CommitOrder == 0 {
			t.Fatalf("commit %d of the first Result was scrubbed by reuse", i)
		}
	}
}

// TestWarmWitnessAfterGrowth: a Runner whose witness memory has grown far
// past its first capacity audits the next runs exactly as a fresh one. The
// RC and SC++ cells carry witness violations, whose text names the last
// store's processor and order, so a stale or misindexed word state in the
// reused table would change the WitnessHash.
func TestWarmWitnessAfterGrowth(t *testing.T) {
	r := NewRunner()
	big := goldenConfig("ocean")
	big.Model, big.Procs, big.Work = ModelSC, 8, 8000
	if _, err := r.Run(big); err != nil {
		t.Fatal(err)
	}
	violations := 0
	for _, app := range []string{"radix", "fft"} {
		for _, model := range []ModelKind{ModelRC, ModelSCpp, ModelSC, ModelBulk} {
			cfg := goldenConfig(app)
			cfg.Model = model
			warm, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if w, c := warm.WitnessHash(), cold.WitnessHash(); w != c {
				t.Fatalf("%s/%v: warm WitnessHash %#x, cold %#x\nwarm %q\ncold %q",
					app, model, w, c, warm.WitnessViolations, cold.WitnessViolations)
			}
			violations += len(cold.WitnessViolations)
		}
	}
	if violations == 0 {
		t.Fatal("no cell reported a witness violation: the test cannot see a stale word state")
	}
}
