package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bulksc/internal/history"
	"bulksc/internal/history/gk"
	"bulksc/internal/sccheck"
	"bulksc/internal/workload"
)

// traceGolden runs one golden (app, model) cell with history export on and
// returns the Result plus the parsed history.
func traceGolden(t *testing.T, app string, mut func(c *Config)) (*Result, *history.History) {
	t.Helper()
	cfg := goldenConfig(app)
	mut(&cfg)
	var buf bytes.Buffer
	cfg.TraceWriter = &buf
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	h, err := history.Read(&buf)
	if err != nil {
		t.Fatalf("%s: exported history does not parse: %v", app, err)
	}
	return res, h
}

// TestOfflineDifferential drives every golden (app, model) cell through
// both feeds of the one SC-witness checker: online, riding inside the
// machine, and offline, gk.Check over the exported NDJSON history. Both
// run internal/sccheck over the same claimed order, so the results must be
// identical — same examined chunk and access counts, and the same
// violation strings, truncation marker included.
func TestOfflineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("offline differential sweep skipped in -short")
	}
	for _, app := range workload.All() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			for _, m := range goldenModels() {
				key := goldenKey(app, m.Label)
				res, h := traceGolden(t, app, m.Mut)
				r := gk.Check(h, gk.Options{})
				if r.Chunks() != res.WitnessChunks || r.Accesses() != res.WitnessAccesses {
					t.Errorf("%s: offline examined %d chunks / %d accesses, online %d / %d",
						key, r.Chunks(), r.Accesses(), res.WitnessChunks, res.WitnessAccesses)
				}
				if !slices.Equal(r.Strings(), res.WitnessViolations) {
					t.Errorf("%s: offline violations differ from online\noffline: %q\nonline:  %q",
						key, r.Strings(), res.WitnessViolations)
				}
			}
		})
	}
}

// TestTraceHashNeutral proves every observer is pure observation: the
// same config run with the history export off, on, or on in event mode,
// each with the witness off and on, produces the determinism hash and
// event count of the run with all of them off, the witness-on runs agree
// on the witness hash, and the export itself is non-trivial. An event-mode
// export holds the default export's records, stamped with cycles, plus
// events under BulkSC, and is byte-identical to it under the other models.
// CheckSC stays on throughout: its commit log is part of what
// DeterminismHash folds.
func TestTraceHashNeutral(t *testing.T) {
	for _, label := range []string{"bulk-dypvt", "sc", "rc"} {
		for _, m := range goldenModels() {
			if m.Label != label {
				continue
			}
			var base, witnessed *Result
			var plain []byte // the default-mode export
			for set := 0; set < 6; set++ {
				trace, events, witness := set%3 != 0, set%3 == 2, set >= 3
				cfg := goldenConfig("radix")
				m.Mut(&cfg)
				var buf bytes.Buffer
				if trace {
					cfg.TraceWriter = &buf
				}
				cfg.TraceEvents = events
				cfg.Witness = witness
				name := fmt.Sprintf("%s trace=%v events=%v witness=%v", label, trace, events, witness)
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if base == nil {
					base = res
				} else {
					if res.DeterminismHash() != base.DeterminismHash() {
						t.Errorf("%s: determinism hash %#x, all observers off %#x",
							name, res.DeterminismHash(), base.DeterminismHash())
					}
					if res.EventsFired != base.EventsFired {
						t.Errorf("%s: %d events fired, all observers off %d", name, res.EventsFired, base.EventsFired)
					}
				}
				if witness {
					if witnessed == nil {
						witnessed = res
					} else if res.WitnessHash() != witnessed.WitnessHash() {
						t.Errorf("%s: other observers changed the witness hash", name)
					}
				}
				if !trace {
					continue
				}
				data := bytes.Clone(buf.Bytes())
				h, err := history.Read(&buf)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if h.Ops() == 0 {
					t.Errorf("%s: empty exported history", name)
				}
				switch {
				case !events:
					if plain != nil && !bytes.Equal(data, plain) {
						t.Errorf("%s: default export changed with the witness", name)
					}
					plain = data
				case cfg.Model != ModelBulk:
					if !bytes.Equal(data, plain) {
						t.Errorf("%s: event mode changed a %s export", name, cfg.Model)
					}
				default:
					want, err := history.Read(bytes.NewReader(plain))
					if err != nil {
						t.Fatal(err)
					}
					if len(h.Events) == 0 {
						t.Errorf("%s: no event records", name)
					}
					for i := range h.Chunks {
						h.Chunks[i].At = 0
					}
					if !reflect.DeepEqual(h.Chunks, want.Chunks) {
						t.Errorf("%s: event mode changed the chunk records", name)
					}
				}
			}
		}
	}
}

// TestMutatedTraceCaught corrupts an exported golden trace three ways —
// value corruption, swapped commit orders, broken atomicity — and
// asserts the offline checker catches each class. This is the end-to-end
// (simulator → NDJSON → checker) version of the gk unit mutation tests.
func TestMutatedTraceCaught(t *testing.T) {
	_, h := traceGolden(t, "radix", func(c *Config) { c.Model = ModelBulk; c.Dypvt = true })
	if r := gk.Check(h, gk.Options{}); !r.Ok() {
		t.Fatalf("pristine trace flagged: %v", r.Strings())
	}
	if len(h.Chunks) < 3 {
		t.Fatalf("trace too small to mutate: %d chunks", len(h.Chunks))
	}

	reparse := func(mut func(*history.History)) *sccheck.Checker {
		// Round-trip the mutation through the serialized form so the test
		// covers reader and checker together. The Writer API takes live
		// chunks, so the mutated records are hand-encoded as NDJSON.
		_, fresh := traceGolden(t, "radix", func(c *Config) { c.Model = ModelBulk; c.Dypvt = true })
		mut(fresh)
		var buf bytes.Buffer
		enc := func(v any) {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
		enc(fresh.Header)
		for i := range fresh.Chunks {
			enc(&fresh.Chunks[i])
		}
		h2, err := history.Read(&buf)
		if err != nil {
			t.Fatalf("mutated history does not parse: %v", err)
		}
		return gk.Check(h2, gk.Options{})
	}

	hasKind := func(r *sccheck.Checker, k sccheck.Kind) bool {
		for _, v := range r.Violations() {
			if v.Kind == k {
				return true
			}
		}
		return false
	}

	// Value corruption → coherence (or atomicity, if the load re-read).
	r := reparse(func(h *history.History) {
		for ci := range h.Chunks {
			for oi, op := range h.Chunks[ci].Ops {
				if !op.Store {
					h.Chunks[ci].Ops[oi].Val = op.Val + 0xdead
					return
				}
			}
		}
		t.Fatal("no load to corrupt")
	})
	if r.Ok() || !(hasKind(r, sccheck.KindCoherence) || hasKind(r, sccheck.KindAtomicity) || hasKind(r, sccheck.KindForwarding)) {
		t.Fatalf("corrupted value not caught: %v", r.Strings())
	}

	// Swapped commit orders → total-order.
	r = reparse(func(h *history.History) {
		h.Chunks[0].Order, h.Chunks[1].Order = h.Chunks[1].Order, h.Chunks[0].Order
	})
	if r.Ok() || !hasKind(r, sccheck.KindTotalOrder) {
		t.Fatalf("swapped commit order not caught: %v", r.Strings())
	}

	// Broken atomicity: make a chunk observe two values for one word with
	// no intervening store, as if another commit interleaved mid-chunk.
	r = reparse(func(h *history.History) {
		for ci := range h.Chunks {
			ops := h.Chunks[ci].Ops
			for oi := range ops {
				if !ops[oi].Store {
					// Duplicate the load with a diverging value right after.
					dup := ops[oi]
					dup.Val++
					h.Chunks[ci].Ops = append(ops[:oi+1], append([]history.Op{dup}, ops[oi+1:]...)...)
					return
				}
			}
		}
		t.Fatal("no load to duplicate")
	})
	if r.Ok() || !hasKind(r, sccheck.KindAtomicity) {
		t.Fatalf("broken atomicity not caught: %v", r.Strings())
	}
}

// TestWarmResultViolationsNotScrubbed pins the aliased-Result satellite
// fix at the machine level: a warm Runner's next job must not mutate the
// witness findings (or anything else) of a Result the caller still holds
// from the previous job.
func TestWarmResultViolationsNotScrubbed(t *testing.T) {
	r := NewRunner()

	// Job 1: RC exhibits its store→load relaxation, so the witness
	// records genuine findings for the Result to retain.
	cfg1 := goldenConfig("radix")
	cfg1.Model = ModelRC
	res1, err := r.Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.WitnessViolations) == 0 {
		t.Skip("RC run produced no witness findings at this config; nothing to pin")
	}
	heldViolations := append([]string(nil), res1.WitnessViolations...)
	heldCycles := res1.Cycles
	heldInstrs := res1.Stats.CommittedInstrs
	heldTraffic := res1.Stats.TotalTraffic()

	// Job 2: a different model on the same warm machine, which resets the
	// checker (clearing its retention slice) and scrubs the stats arena.
	cfg2 := goldenConfig("fft")
	cfg2.Model = ModelBulk
	cfg2.Dypvt = true
	if _, err := r.Run(cfg2); err != nil {
		t.Fatal(err)
	}

	if res1.Cycles != heldCycles {
		t.Errorf("warm job 2 changed job 1's Cycles: %d vs %d", res1.Cycles, heldCycles)
	}
	if len(res1.WitnessViolations) != len(heldViolations) {
		t.Fatalf("warm job 2 changed job 1's violation count: %d vs %d",
			len(res1.WitnessViolations), len(heldViolations))
	}
	for i := range heldViolations {
		if res1.WitnessViolations[i] != heldViolations[i] {
			t.Errorf("warm job 2 scrubbed job 1's violation %d: %q vs %q",
				i, res1.WitnessViolations[i], heldViolations[i])
		}
	}
	if res1.Stats.CommittedInstrs != heldInstrs || res1.Stats.TotalTraffic() != heldTraffic {
		t.Error("warm job 2 mutated job 1's Stats")
	}
}
