package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"bulksc/experiments"
)

// FuzzSweepFlags feeds arbitrary command lines, one argument per line,
// through parse, which validates flags without starting a simulation.
// parse must never panic; a rejected command line must say why on stderr;
// an accepted one must carry valid inputs that every selected experiment
// resolves. Its seeds are the checked-in corpus under testdata/fuzz.
func FuzzSweepFlags(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		args := strings.Split(line, "\n")
		var errb bytes.Buffer
		c, ok := parse(args, &errb)
		var again bytes.Buffer
		if _, ok2 := parse(args, &again); ok2 != ok || again.String() != errb.String() {
			t.Fatalf("parse %q is not deterministic", args)
		}
		if !ok {
			if errb.Len() == 0 {
				t.Fatalf("parse %q rejected without a diagnostic", args)
			}
			return
		}
		if err := c.in.Validate(); err != nil {
			t.Fatalf("parse %q accepted invalid inputs: %v", args, err)
		}
		if c.in.Parallelism < 1 {
			t.Fatalf("parse %q accepted %d workers", args, c.in.Parallelism)
		}
		if c.exp == "trace" {
			if len(c.selected) != 0 || !slices.Contains(experiments.TraceModels(), strings.ToLower(c.traceModel)) {
				t.Fatalf("parse %q: trace with experiments %d, model %q", args, len(c.selected), c.traceModel)
			}
			if len(c.in.Apps) > 1 || len(c.in.Procs) > 1 {
				t.Fatalf("parse %q: trace accepted apps %q and procs %v", args, c.in.Apps, c.in.Procs)
			}
			return
		}
		if len(c.selected) == 0 {
			t.Fatalf("parse %q selected no experiment", args)
		}
		for _, e := range c.selected {
			if _, err := e.Resolve(c.in); err != nil {
				t.Fatalf("parse %q: %s does not resolve: %v", args, e.Name, err)
			}
		}
	})
}
