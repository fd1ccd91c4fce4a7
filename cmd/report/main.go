// Command report runs the full evaluation sweep and emits a markdown
// report comparing this reproduction against the paper, table by table and
// figure by figure — the generator behind EXPERIMENTS.md. Each section is
// one experiments.Catalog entry, run with the catalog's defaults and
// titled with its heading, so the report and `sweep -exp` agree.
//
// Usage:
//
//	report -work 150000 > EXPERIMENTS_RESULTS.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bulksc/experiments"
)

func main() {
	var (
		work = flag.Int("work", 120_000, "dynamic instructions per thread")
		seed = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if err := report(os.Stdout, experiments.Params{Work: *work, Seed: *seed}); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

// sections names the catalog experiments of the report, in order.
var sections = []string{"fig9", "fig10", "table3", "table4", "fig11", "arbiters"}

// report runs every section on p and writes the markdown report to w,
// ending with the shape verdicts taken from the sections' typed rows.
func report(w io.Writer, p experiments.Params) error {
	fmt.Fprintf(w, "# BulkSC reproduction — measured results\n\n")
	fmt.Fprintf(w, "Generated by `go run ./cmd/report -work %d -seed %d`.\n", p.Work, p.Seed)
	fmt.Fprintf(w, "8 processors, 1000-instruction chunks, 2 Kbit signatures, warmup 30%% excluded.\n\n")
	rows := make(map[string]any)
	for _, name := range sections {
		e, _ := experiments.Lookup(name)
		in, err := e.Resolve(experiments.Inputs{Params: p})
		if err != nil {
			return err
		}
		var table string
		if rows[name], table, err = e.Run(in); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "## %s\n\n```\n%s```\n\n", sectionTitle(e, in), table)
	}
	fmt.Fprint(w, "## Shape verdicts — paper claims vs this reproduction\n\n")
	fmt.Fprint(w, experiments.FormatShapeChecks(experiments.CheckShapes(
		rows["fig9"].([]experiments.Fig9Row), rows["table3"].([]experiments.Table3Row),
		rows["table4"].([]experiments.Table4Row), rows["fig11"].([]experiments.Fig11Row))))
	return nil
}

// sectionTitle is the catalog heading without its "=== … ===" frame.
func sectionTitle(e experiments.Experiment, in experiments.Inputs) string {
	return strings.Trim(e.Title(in), "= ")
}
