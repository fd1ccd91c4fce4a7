package explore

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"bulksc/internal/history"
	"bulksc/internal/history/gk"
	"bulksc/internal/sccheck"
	"bulksc/internal/workload"
)

// forbidden is the hand-written reference: the outcome SC forbids in each
// suite kernel (CoRR's is forbidden by coherence alone).
var forbidden = map[string]string{
	"SB": "0:[0] 1:[0]", "MP": "0:[] 1:[1 0]", "LB": "0:[1] 1:[1]",
	"WRC": "0:[] 1:[1] 2:[1 0]", "CoRR": "0:[] 1:[1 0]", "IRIW": "0:[] 1:[] 2:[1 0] 3:[1 0]",
}

// suite derives every workload.LitmusSuite kernel at pad 0, named as in
// the suite.
func suite(t *testing.T) []*Program {
	t.Helper()
	var out []*Program
	for _, k := range workload.LitmusSuite() {
		p, err := FromProgram(k.Build(0))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		p.Name = k.Name
		out = append(out, p)
	}
	return out
}

func kernel(t *testing.T, name string) *Program {
	t.Helper()
	s := suite(t)
	return s[slices.IndexFunc(s, func(p *Program) bool { return p.Name == name })]
}

func mustExplore(t *testing.T, p *Program, m Model, opt Options) *Result {
	t.Helper()
	r, err := Explore(p, m, opt)
	if err != nil {
		t.Fatalf("Explore(%s, %s): %v", p.Name, m, err)
	}
	return r
}

// TestSCReference pins SB's SC outcome set.
func TestSCReference(t *testing.T) {
	sb := mustExplore(t, kernel(t, "SB"), ModelSC, DefaultOptions())
	want := []string{"0:[0] 1:[1]", "0:[1] 1:[0]", "0:[1] 1:[1]"}
	if !reflect.DeepEqual(sb.Keys(), want) {
		t.Fatalf("SB SC outcomes = %v, want %v", sb.Keys(), want)
	}
}

// TestForbiddenUnreachable is the core proof obligation: for every litmus
// kernel, the SC-forbidden outcome is unreachable under both SC and
// BulkSC (over EVERY chunking), and the BulkSC outcome set is exactly
// the SC outcome set.
func TestForbiddenUnreachable(t *testing.T) {
	for _, p := range suite(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			sc := mustExplore(t, p, ModelSC, DefaultOptions())
			bulk := mustExplore(t, p, ModelBulk, DefaultOptions())
			if sc.Has(forbidden[p.Name]) {
				t.Errorf("forbidden outcome %q reachable under SC", forbidden[p.Name])
			}
			if bulk.Has(forbidden[p.Name]) {
				t.Errorf("forbidden outcome %q reachable under BulkSC", forbidden[p.Name])
			}
			// Chunk atomicity only removes interleavings (⊆); singleton
			// chunks recover each one (⊇): the sets must be equal.
			if !reflect.DeepEqual(sc.Keys(), bulk.Keys()) {
				t.Errorf("BulkSC outcomes %v != SC outcomes %v", bulk.Keys(), sc.Keys())
			}
			if bulk.Chunkings < 2 && p.Name != "IRIW" {
				t.Errorf("Bulk enumerated %d chunkings", bulk.Chunkings)
			}
		})
	}
}

// TestRCExhibitsSB proves the RC model is genuinely weaker: SB's
// forbidden outcome is reachable, while the order relaxations RC does
// NOT make (load→store, same-address read-read) stay forbidden.
func TestRCExhibitsSB(t *testing.T) {
	sb := mustExplore(t, kernel(t, "SB"), ModelRC, DefaultOptions())
	if !sb.Has(forbidden["SB"]) {
		t.Fatalf("RC did not exhibit SB's forbidden outcome: %v", sb.Keys())
	}
	sc := mustExplore(t, kernel(t, "SB"), ModelSC, DefaultOptions())
	if !sc.SubsetOf(sb) {
		t.Fatalf("RC outcomes %v lost SC outcomes %v", sb.Keys(), sc.Keys())
	}
	for _, name := range []string{"LB", "CoRR"} {
		if r := mustExplore(t, kernel(t, name), ModelRC, DefaultOptions()); r.Has(forbidden[name]) {
			t.Fatalf("RC store buffer reached %s's forbidden outcome: %v", name, r.Keys())
		}
	}
}

// TestFromProgram: every pad derives the pad-0 program, and programs
// whose outcomes are not 0/1 flag vectors, or whose chunkings are too
// many to enumerate, are rejected.
func TestFromProgram(t *testing.T) {
	for i, k := range workload.LitmusSuite() {
		want := suite(t)[i]
		for pad := 0; pad < 40; pad++ {
			p, err := FromProgram(k.Build(pad))
			if err != nil {
				t.Fatalf("%s pad %d: %v", k.Name, pad, err)
			}
			if p.Name = k.Name; !reflect.DeepEqual(p, want) {
				t.Fatalf("%s pad %d derived %+v, pad 0 %+v", k.Name, pad, p, want)
			}
		}
	}
	long := workload.Build("long", 2, 1, func(b *workload.Builder) {
		if b.Tid() == 0 {
			b.Store(workload.LitmusX)
		}
		for i := 0; i < 17*b.Tid(); i++ {
			b.Load(workload.LitmusX)
		}
	})
	for _, tc := range []struct {
		prog *workload.Program
		want string
	}{
		{workload.DekkerLock(2, 2), "acquire"},
		{workload.CoherenceOrder(1), "more than once"},
		{long, "17 shared ops"},
	} {
		if _, err := FromProgram(tc.prog); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.prog.Name, err, tc.want)
		}
	}
}

// TestObservedRoundTrip: Observed reads back, from the histories the
// enumeration emits, exactly the outcomes the enumeration reports.
func TestObservedRoundTrip(t *testing.T) {
	for _, p := range suite(t) {
		for _, m := range []Model{ModelSC, ModelBulk, ModelRC} {
			seen := map[string]bool{}
			opt := DefaultOptions()
			opt.OnHistory = func(h *history.History) error {
				o, err := p.Observed(h)
				seen[o.Key()] = true
				return err
			}
			r := mustExplore(t, p, m, opt)
			var got []string
			for k := range seen {
				got = append(got, k)
			}
			slices.Sort(got)
			if !reflect.DeepEqual(got, r.Keys()) {
				t.Errorf("%s/%s: Observed read %v, enumeration %v", p.Name, m, got, r.Keys())
			}
		}
	}
	h := &history.History{Accesses: []history.AccessRec{{Proc: 0, PO: 1, Addr: uint64(workload.LitmusY)}}}
	if _, err := kernel(t, "SB").Observed(h); err == nil || !strings.Contains(err.Error(), "thread 1 observed 0") {
		t.Errorf("a missing load: err = %v", err)
	}
}

// TestPOREquivalence cross-validates the sleep-set reduction: identical
// outcome sets with and without POR, at (usually strictly) fewer states.
func TestPOREquivalence(t *testing.T) {
	models := []Model{ModelSC, ModelBulk, ModelRC}
	for _, p := range suite(t) {
		for _, m := range models {
			por := mustExplore(t, p, m, Options{POR: true})
			full := mustExplore(t, p, m, Options{POR: false})
			if !reflect.DeepEqual(por.Keys(), full.Keys()) {
				t.Errorf("%s/%s: POR outcomes %v != full outcomes %v",
					p.Name, m, por.Keys(), full.Keys())
			}
			if por.States > full.States {
				t.Errorf("%s/%s: POR visited %d states, full only %d",
					p.Name, m, por.States, full.States)
			}
			if por.Traces > full.Traces {
				t.Errorf("%s/%s: POR explored %d traces, full only %d",
					p.Name, m, por.Traces, full.Traces)
			}
		}
	}
	// The reduction must actually reduce somewhere substantial.
	por := mustExplore(t, kernel(t, "IRIW"), ModelSC, Options{POR: true})
	full := mustExplore(t, kernel(t, "IRIW"), ModelSC, Options{POR: false})
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
	for _, p := range suite(t) {
		for _, m := range []Model{ModelSC, ModelBulk} {
			n := 0
			opt := DefaultOptions()
			opt.OnHistory = func(h *history.History) error {
				n++
				if r := gk.Check(h, gk.Options{}); !r.Ok() {
					t.Fatalf("%s/%s: enumerated execution failed offline check: %v",
						p.Name, m, r.Strings())
				}
				return nil
			}
			mustExplore(t, p, m, opt)
			if n == 0 {
				t.Fatalf("%s/%s: no histories emitted", p.Name, m)
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
	mustExplore(t, kernel(t, "SB"), ModelRC, opt)
	if poFindings == 0 {
		t.Fatal("RC SB enumeration never exhibited the program-order relaxation")
	}
}

func TestStateBound(t *testing.T) {
	_, err := Explore(kernel(t, "SB"), ModelSC, Options{MaxStates: 3})
	if err == nil || !strings.Contains(err.Error(), "state bound") {
		t.Fatalf("err = %v, want state bound error", err)
	}
}

func TestChunkingCount(t *testing.T) {
	// SB: two threads of 2 ops → 2 partitions each → 4 chunkings.
	r := mustExplore(t, kernel(t, "SB"), ModelBulk, DefaultOptions())
	if r.Chunkings != 4 {
		t.Fatalf("SB chunkings = %d, want 4", r.Chunkings)
	}
}
