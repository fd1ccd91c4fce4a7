// Command bulksim runs one simulation: an application from the paper's
// evaluation suite on one machine configuration, printing the runtime and
// the characterization statistics behind the paper's Tables 3 and 4.
//
// Usage:
//
//	bulksim -app radix -variant dypvt -procs 8 -work 120000 -chunk 1000
//
// Variants: sc, rc, sc++, base, dypvt, stpvt, exact (see Table 2).
// -timeline renders the run's event-mode history export (BulkSC only).
// Exit status: 0 ok, 1 the run failed, 2 bad flags or an SC violation.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"bulksc"
	"bulksc/internal/history"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bulksim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app      = fs.String("app", "fft", "application: "+strings.Join(bulksc.Apps(), ", "))
		variant  = fs.String("variant", "dypvt", "configuration: "+strings.Join(bulksc.Variants(), ", "))
		procs    = fs.Int("procs", 8, fmt.Sprintf("processor count, 1..%d", bulksc.MaxProcs))
		work     = fs.Int("work", 120_000, "dynamic instructions per thread")
		chunk    = fs.Int("chunk", 1000, "chunk size in instructions (BulkSC)")
		seed     = fs.Int64("seed", 1, "simulation seed")
		arbs     = fs.Int("arbiters", 1, "arbiter/directory modules")
		check    = fs.Bool("check", true, "run the SC replay checker (BulkSC)")
		verbose  = fs.Bool("v", false, "print the full statistics block")
		timeline = fs.Bool("timeline", false, "render the commit/squash timeline (BulkSC)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validate(fs.Args(), *app, *variant, *procs, *work); err != nil {
		fmt.Fprintln(stderr, "bulksim:", err)
		return 2
	}

	cfg := bulksc.Variant(*app, *variant)
	cfg.Procs = *procs
	cfg.Work = *work
	cfg.ChunkSize = *chunk
	cfg.Seed = *seed
	cfg.NumArbiters = *arbs
	var trace bytes.Buffer
	if cfg.Model == bulksc.ModelBulk {
		cfg.CheckSC = *check
		if *timeline {
			cfg.TraceWriter, cfg.TraceEvents = &trace, true
		}
	}
	if cfg.Model == bulksc.ModelBulk || cfg.Model == bulksc.ModelSC {
		cfg.Witness = *check
	}

	res, err := bulksc.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bulksim:", err)
		return 1
	}
	s := res.Stats
	fmt.Fprintf(stdout, "%s / %s: %d cycles, %d instructions committed (%.2f IPC/core)\n",
		*app, *variant, res.Cycles, s.CommittedInstrs,
		float64(s.CommittedInstrs)/float64(res.Cycles)/float64(*procs))
	if len(res.WitnessViolations) > 0 {
		fmt.Fprintln(stdout, "SC WITNESS VIOLATIONS:")
		for _, v := range res.WitnessViolations {
			fmt.Fprintln(stdout, " ", v)
		}
		return 2
	}
	if cfg.Witness {
		fmt.Fprintf(stdout, "SC witness verified: %d chunks, %d accesses\n", res.WitnessChunks, res.WitnessAccesses)
	}
	if cfg.Model == bulksc.ModelBulk {
		if len(res.SCViolations) > 0 {
			fmt.Fprintln(stdout, "SC VIOLATIONS:")
			for _, v := range res.SCViolations {
				fmt.Fprintln(stdout, " ", v)
			}
			return 2
		}
		if *check {
			fmt.Fprintf(stdout, "sequential consistency verified over %d committed chunks\n", res.ChunksChecked)
		}
		fmt.Fprintf(stdout, "chunks=%d squashed=%.2f%% (true=%d aliased=%d)  sets R=%.1f W=%.2f privW=%.1f\n",
			s.Chunks, s.SquashedPct(), s.SquashesTrue, s.SquashesAliased,
			s.AvgReadSet(), s.AvgWriteSet(), s.AvgPrivWriteSet())
		fmt.Fprintf(stdout, "commits: empty-W=%.1f%% R-sig-required=%.1f%% pendingW=%.2f non-empty-list=%.1f%%\n",
			s.EmptyWSigPct(), s.RSigRequiredPct(), s.AvgPendingWSigs(), s.NonEmptyWListPct())
		fmt.Fprintf(stdout, "directory: lookups/commit=%.1f unnecessary=%.1f%% updates-unnecessary=%.2f%% nodes/Wsig=%.2f\n",
			s.LookupsPerCommit(), s.UnnecessaryLookupPct(), s.UnnecessaryUpdatePct(), s.NodesPerWSig())
	}
	fmt.Fprintf(stdout, "traffic: total=%d bytes", s.TotalTraffic())
	for _, c := range bulksc.TrafficCategories() {
		fmt.Fprintf(stdout, "  %s=%d", c, s.TrafficBytes[c])
	}
	fmt.Fprintln(stdout)
	if cfg.TraceEvents {
		h, err := history.Read(&trace)
		if err != nil {
			fmt.Fprintln(stderr, "bulksim: timeline:", err)
			return 1
		}
		fmt.Fprintln(stdout)
		renderTimeline(stdout, h, 100)
	}
	if *verbose {
		fmt.Fprintf(stdout, "L1 hits=%d misses=%d  L2 hits=%d misses=%d  writebacks=%d prefetches=%d\n",
			s.L1Hits, s.L1Misses, s.L2Hits, s.L2Misses, s.Writebacks, s.Prefetches)
		fmt.Fprintf(stdout, "privbuf: supplies=%d overflows=%d restores=%d  extra-invs=%d  bounces=%d\n",
			s.PrivBufSupplies, s.PrivBufOverflows, s.PrivBufRestores, s.ExtraCacheInvs, s.ReadBounces)
		fmt.Fprintf(stdout, "forward progress: shrinks=%d pre-arbitrations=%d set-overflow-cuts=%d\n",
			s.ChunkShrinks, s.PreArbitrations, s.SetOverflowCuts)
		fmt.Fprintf(stdout, "per-proc completion cycles: %v\n", res.PerProc)
	}
	return 0
}

// validate refuses, before any simulation starts, the flag values that
// would otherwise panic or print a meaningless run.
func validate(rest []string, app, variant string, procs, work int) error {
	switch {
	case len(rest) > 0:
		return fmt.Errorf("unexpected arguments %q", rest)
	case !slices.Contains(bulksc.Apps(), app):
		return fmt.Errorf("unknown application %q (valid: %s)", app, strings.Join(bulksc.Apps(), ", "))
	case !slices.Contains(bulksc.Variants(), variant):
		return fmt.Errorf("unknown variant %q (valid: %s)", variant, strings.Join(bulksc.Variants(), ", "))
	case procs < 1 || procs > bulksc.MaxProcs:
		return fmt.Errorf("procs %d out of range [1,%d]", procs, bulksc.MaxProcs)
	case work < 1:
		return fmt.Errorf("work must be positive, got %d", work)
	}
	return nil
}
