package main

import (
	"bytes"
	"strings"
	"testing"

	"bulksc/experiments"
)

// TestReportSections runs the whole report on a small budget: every
// section carries its catalog heading and a table, and the shape-verdict
// table closes the report.
func TestReportSections(t *testing.T) {
	if testing.Short() {
		t.Skip("full report sweep in -short mode")
	}
	var out bytes.Buffer
	p := experiments.Params{Work: 2000, Seed: 1}
	if err := report(&out, p); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, name := range sections {
		e, ok := experiments.Lookup(name)
		if !ok {
			t.Fatalf("section %q is not in the catalog", name)
		}
		in, err := e.Resolve(experiments.Inputs{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		if h := "## " + sectionTitle(e, in) + "\n\n```\n"; !strings.Contains(text, h) {
			t.Errorf("report lacks the %s section heading %q", name, h)
		}
	}
	for _, want := range []string{
		"## Shape verdicts — paper claims vs this reproduction\n\n",
		"| # | claim | paper | this repo | holds |\n",
		"| 1 | BSCdypvt ≈ RC (Fig 9) |",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report lacks %q", want)
		}
	}
}
