package bulksc_test

import (
	"fmt"
	"testing"

	"bulksc"
)

func TestAPIRoundTrip(t *testing.T) {
	cfg := bulksc.DefaultConfig("water-sp")
	cfg.Work = 15_000
	res, err := bulksc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	if len(res.SCViolations) > 0 {
		t.Fatalf("SC violated: %s", res.SCViolations[0])
	}
	if res.Stats.Chunks == 0 {
		t.Fatal("no chunks committed")
	}
}

func TestVariantsCoverTable2(t *testing.T) {
	for _, v := range bulksc.Variants() {
		cfg := bulksc.Variant("fft", v)
		switch v {
		case "sc":
			if cfg.Model != bulksc.ModelSC {
				t.Errorf("%s: model %v", v, cfg.Model)
			}
		case "rc":
			if cfg.Model != bulksc.ModelRC {
				t.Errorf("%s: model %v", v, cfg.Model)
			}
		case "sc++":
			if cfg.Model != bulksc.ModelSCpp {
				t.Errorf("%s: model %v", v, cfg.Model)
			}
		case "base":
			if cfg.Model != bulksc.ModelBulk || cfg.Dypvt || cfg.Stpvt {
				t.Errorf("%s misconfigured: %+v", v, cfg)
			}
		case "dypvt":
			if !cfg.Dypvt {
				t.Errorf("%s misconfigured", v)
			}
		case "stpvt":
			if !cfg.Stpvt || cfg.Dypvt {
				t.Errorf("%s misconfigured", v)
			}
		case "exact":
			if cfg.SigKind != bulksc.SigExact {
				t.Errorf("%s misconfigured", v)
			}
		}
	}
}

func TestUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown variant did not panic")
		}
	}()
	bulksc.Variant("fft", "nonesuch")
}

func TestAppListsConsistent(t *testing.T) {
	if len(bulksc.Apps()) != len(bulksc.Splash2())+len(bulksc.Commercial()) {
		t.Fatal("app lists inconsistent")
	}
	seen := map[string]bool{}
	for _, a := range bulksc.Apps() {
		if seen[a] {
			t.Fatalf("duplicate app %s", a)
		}
		seen[a] = true
	}
}

func TestLitmusConstructors(t *testing.T) {
	for name, tc := range map[string]struct {
		prog    *bulksc.Program
		threads int
	}{
		"sb":   {bulksc.StoreBuffering(4), 2},
		"mp":   {bulksc.MessagePassing(4), 2},
		"lb":   {bulksc.LoadBuffering(4), 2},
		"wrc":  {bulksc.WRC(4), 3},
		"corr": {bulksc.CoRR(4), 2},
		"iriw": {bulksc.IRIW(4), 4},
		"lock": {bulksc.DekkerLock(5, 4), 4},
		"co":   {bulksc.CoherenceOrder(10), 4},
	} {
		if len(tc.prog.Threads) != tc.threads {
			t.Errorf("%s: %d threads, want %d", name, len(tc.prog.Threads), tc.threads)
		}
	}
}

// ExampleRun demonstrates the one-call API.
func ExampleRun() {
	cfg := bulksc.DefaultConfig("water-sp")
	cfg.Work = 10_000
	res, err := bulksc.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("SC violations:", len(res.SCViolations))
	// Output: SC violations: 0
}
