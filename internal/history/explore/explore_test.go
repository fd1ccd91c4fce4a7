package explore

import (
	"reflect"
	"strings"
	"testing"

	"bulksc/internal/history"
	"bulksc/internal/history/gk"
	"bulksc/internal/sccheck"
)

func mustExplore(t *testing.T, p *Program, m Model, opt Options) *Result {
	t.Helper()
	r, err := Explore(p, m, opt)
	if err != nil {
		t.Fatalf("Explore(%s, %s): %v", p.Name, m, err)
	}
	return r
}

// TestSCReference pins the SC outcome sets of the two-variable kernels.
func TestSCReference(t *testing.T) {
	sb := mustExplore(t, SB(), ModelSC, DefaultOptions())
	want := []string{"0:[0] 1:[1]", "0:[1] 1:[0]", "0:[1] 1:[1]"}
	if !reflect.DeepEqual(sb.Keys(), want) {
		t.Fatalf("SB SC outcomes = %v, want %v", sb.Keys(), want)
	}
	mp := mustExplore(t, MP(), ModelSC, DefaultOptions())
	if mp.Has(MPForbidden()) {
		t.Fatalf("MP forbidden outcome reachable under SC: %v", mp.Keys())
	}
}

// TestForbiddenUnreachable is the core proof obligation: for every litmus
// kernel, the SC-forbidden outcome is unreachable under both SC and
// BulkSC (over EVERY chunking), and the BulkSC outcome set is exactly
// the SC outcome set.
func TestForbiddenUnreachable(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Prog.Name, func(t *testing.T) {
			sc := mustExplore(t, k.Prog, ModelSC, DefaultOptions())
			bulk := mustExplore(t, k.Prog, ModelBulk, DefaultOptions())
			if sc.Has(k.Forbidden) {
				t.Errorf("forbidden outcome %q reachable under SC", k.Forbidden)
			}
			if bulk.Has(k.Forbidden) {
				t.Errorf("forbidden outcome %q reachable under BulkSC", k.Forbidden)
			}
			// Chunk atomicity only removes interleavings (⊆); singleton
			// chunks recover each one (⊇): the sets must be equal.
			if !reflect.DeepEqual(sc.Keys(), bulk.Keys()) {
				t.Errorf("BulkSC outcomes %v != SC outcomes %v", bulk.Keys(), sc.Keys())
			}
			if bulk.Chunkings < 2 && k.Prog.Name != "IRIW" {
				t.Errorf("Bulk enumerated %d chunkings", bulk.Chunkings)
			}
		})
	}
}

// TestRCExhibitsSB proves the RC model is genuinely weaker: SB's
// forbidden outcome is reachable, while the order relaxations RC does
// NOT make (load→store, same-address read-read) stay forbidden.
func TestRCExhibitsSB(t *testing.T) {
	sb := mustExplore(t, SB(), ModelRC, DefaultOptions())
	if !sb.Has(SBForbidden()) {
		t.Fatalf("RC did not exhibit SB's forbidden outcome: %v", sb.Keys())
	}
	sc := mustExplore(t, SB(), ModelSC, DefaultOptions())
	if !sc.SubsetOf(sb) {
		t.Fatalf("RC outcomes %v lost SC outcomes %v", sb.Keys(), sc.Keys())
	}
	if lb := mustExplore(t, LB(), ModelRC, DefaultOptions()); lb.Has(LBForbidden()) {
		t.Fatalf("RC store buffer must not reorder load→store: %v", lb.Keys())
	}
	if co := mustExplore(t, CoRR(), ModelRC, DefaultOptions()); co.Has(CoRRForbidden()) {
		t.Fatalf("RC store buffer must stay coherent: %v", co.Keys())
	}
}

// TestPOREquivalence cross-validates the sleep-set reduction: identical
// outcome sets with and without POR, at (usually strictly) fewer states.
func TestPOREquivalence(t *testing.T) {
	models := []Model{ModelSC, ModelBulk, ModelRC}
	for _, k := range Kernels() {
		for _, m := range models {
			por := mustExplore(t, k.Prog, m, Options{POR: true})
			full := mustExplore(t, k.Prog, m, Options{POR: false})
			if !reflect.DeepEqual(por.Keys(), full.Keys()) {
				t.Errorf("%s/%s: POR outcomes %v != full outcomes %v",
					k.Prog.Name, m, por.Keys(), full.Keys())
			}
			if por.States > full.States {
				t.Errorf("%s/%s: POR visited %d states, full only %d",
					k.Prog.Name, m, por.States, full.States)
			}
			if por.Traces > full.Traces {
				t.Errorf("%s/%s: POR explored %d traces, full only %d",
					k.Prog.Name, m, por.Traces, full.Traces)
			}
		}
	}
	// The reduction must actually reduce somewhere substantial.
	por := mustExplore(t, IRIW(), ModelSC, Options{POR: true})
	full := mustExplore(t, IRIW(), ModelSC, Options{POR: false})
	if por.States >= full.States {
		t.Errorf("IRIW: POR gave no reduction (%d vs %d states)", por.States, full.States)
	}
}

// TestHistoriesCheckOffline closes the loop with the offline checker:
// every enumerated SC/BulkSC execution re-serializes to a history whose
// claimed order gk.Check verifies clean, and every enumerated RC
// execution stays value-coherent (only program-order findings, which ARE
// the relaxation).
func TestHistoriesCheckOffline(t *testing.T) {
	for _, k := range Kernels() {
		for _, m := range []Model{ModelSC, ModelBulk} {
			n := 0
			opt := DefaultOptions()
			opt.OnHistory = func(h *history.History) error {
				n++
				if r := gk.Check(h, gk.Options{}); !r.Ok() {
					t.Fatalf("%s/%s: enumerated execution failed offline check: %v",
						k.Prog.Name, m, r.Strings())
				}
				return nil
			}
			mustExplore(t, k.Prog, m, opt)
			if n == 0 {
				t.Fatalf("%s/%s: no histories emitted", k.Prog.Name, m)
			}
		}
	}
	opt := DefaultOptions()
	poFindings := 0
	opt.OnHistory = func(h *history.History) error {
		r := gk.Check(h, gk.Options{})
		for _, v := range r.Violations() {
			if v.Kind != sccheck.KindProgramOrder {
				t.Fatalf("RC execution broke a value obligation: %v", v)
			}
			poFindings++
		}
		return nil
	}
	mustExplore(t, SB(), ModelRC, opt)
	if poFindings == 0 {
		t.Fatal("RC SB enumeration never exhibited the program-order relaxation")
	}
}

func TestStateBound(t *testing.T) {
	_, err := Explore(SB(), ModelSC, Options{MaxStates: 3})
	if err == nil || !strings.Contains(err.Error(), "state bound") {
		t.Fatalf("err = %v, want state bound error", err)
	}
}

func TestChunkingCount(t *testing.T) {
	// SB: two threads of 2 ops → 2 partitions each → 4 chunkings.
	r := mustExplore(t, SB(), ModelBulk, DefaultOptions())
	if r.Chunkings != 4 {
		t.Fatalf("SB chunkings = %d, want 4", r.Chunkings)
	}
}
