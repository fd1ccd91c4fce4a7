// Command sweep regenerates the paper's evaluation artifacts: every table
// and figure of §7, plus the distributed-arbiter extension study.
//
// Usage:
//
//	sweep -exp fig9                 # Figure 9: performance vs RC
//	sweep -exp fig10                # Figure 10: chunk-size sensitivity
//	sweep -exp table3               # Table 3: BulkSC characterization
//	sweep -exp table4               # Table 4: commit & coherence
//	sweep -exp fig11                # Figure 11: traffic breakdown
//	sweep -exp arbiters -procs 16   # §4.2.3 distributed-arbiter ablation
//	sweep -exp sigspace             # §6 signature design-space ablation
//	sweep -exp scaling -procs 8,16,64,256   # big-machine scaling curves
//	sweep -exp faults               # fault-injection campaign report
//	sweep -exp all                  # everything, in order
//	sweep -exp trace -apps radix -trace-out trace.ndjson
//	                                # export one run's SC history as NDJSON
//
// The experiments, in -exp all order, and each one's default application
// suite, machine sizes and arbiter counts come from experiments.Catalog;
// -apps and -procs override the defaults.
//
// The trace experiment simulates a single (app, model) cell with history
// export on and streams the NDJSON history (internal/history format) to
// -trace-out ("-" = stdout, with the run report diverted to stderr so
// `sweep -exp trace | scchk` pipes cleanly). -trace-model selects the
// machine (bulk, sc, rc, sc++). It is excluded from -exp all.
//
// The -work flag sets the per-thread instruction budget; larger runs give
// steadier statistics (the first 30% is always excluded as warmup).
//
// Sweeps execute on a fixed pool of -parallel workers (default NumCPU),
// each owning one warm machine that is reset in place between
// simulations; workload programs are generated once per (app, procs,
// work, seed) and shared. The -cold flag disables the reuse and
// constructs a fresh machine per simulation — results are bit-identical
// either way (golden-tested), so -cold exists only to isolate a suspected
// reuse bug or to measure the reuse win.
//
// The -sccheck flag runs the online SC-witness checker (internal/sccheck)
// alongside every SC-claiming simulation of the sweep; any witness
// violation aborts the sweep with a diagnostic.
//
// The -faults flag applies a named fault-injection campaign (see
// bulksc.FaultCampaigns) to every simulation of the sweep; -fault-seed
// makes the injected schedule reproducible. The simulated machine must
// absorb every campaign without a correctness or liveness failure — the
// liveness watchdog converts a livelock into a diagnostic error instead
// of a hang.
//
// Profiling (for performance PRs — attach the resulting profiles as
// evidence):
//
//	sweep -exp fig9 -cpuprofile cpu.pprof   # go tool pprof cpu.pprof
//	sweep -exp fig9 -memprofile mem.pprof   # allocation profile at exit
//	sweep -exp fig9 -trace trace.out        # go tool trace trace.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"

	"bulksc"
	"bulksc/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point: it parses args, validates every
// enumerated flag against its catalog (unknown values exit non-zero with
// the valid list), executes the selected experiments, and writes reports
// to stdout and diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), ", ")+", trace, all")
		work      = fs.Int("work", 120_000, "dynamic instructions per thread")
		seed      = fs.Int64("seed", 1, "simulation seed")
		apps      = fs.String("apps", "", "comma-separated subset of applications (default: the experiment's own suite)")
		procs     = fs.String("procs", "", "comma-separated core counts: the scaling study runs every value; the arbiter ablation uses the first (default: the experiment's own)")
		par       = fs.Int("parallel", 0, "parallel workers, one warm machine each (default: NumCPU)")
		cold      = fs.Bool("cold", false, "construct a fresh machine per simulation instead of reusing one warm machine per worker (bit-identical results; reuse-debugging escape hatch)")
		scchk     = fs.Bool("sccheck", false, "run the online SC-witness checker on every SC-claiming simulation (fails the sweep on a violation)")
		faults    = fs.String("faults", "none", "fault-injection campaign: "+strings.Join(bulksc.FaultCampaigns(), ", "))
		faultSeed = fs.Int64("fault-seed", 1, "base seed for the fault-injection schedule")

		traceOut   = fs.String("trace-out", "-", "history-export destination for -exp trace (\"-\" = stdout)")
		traceModel = fs.String("trace-model", "bulk", "machine model for -exp trace: "+strings.Join(experiments.TraceModels(), ", "))

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file at exit")
		tracefile  = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Validate every flag before any simulation starts: a typo must fail
	// fast with the list of valid values, not run half a sweep.
	var selected []experiments.Experiment
	switch *exp {
	case "all":
		for _, e := range experiments.Catalog() {
			if e.OwnCampaigns && *faults != "none" {
				// The whole sweep already runs under the campaign; a
				// report iterating every campaign would rerun it again.
				continue
			}
			selected = append(selected, e)
		}
	case "trace":
		if !slices.Contains(experiments.TraceModels(), strings.ToLower(*traceModel)) {
			fmt.Fprintf(stderr, "sweep: unknown trace model %q (valid: %s)\n", *traceModel, strings.Join(experiments.TraceModels(), ", "))
			return 2
		}
	default:
		e, ok := experiments.Lookup(*exp)
		if !ok {
			fmt.Fprintf(stderr, "sweep: unknown experiment %q (valid: %s, trace, all)\n", *exp, strings.Join(experiments.Names(), ", "))
			return 2
		}
		selected = append(selected, e)
	}
	if *par < 0 {
		fmt.Fprintf(stderr, "sweep: -parallel must be >= 0 (0 = NumCPU)\n")
		return 2
	}
	if *par == 0 {
		*par = runtime.NumCPU()
	}
	in := experiments.Inputs{Params: experiments.Params{
		Work: *work, Seed: *seed, Parallelism: *par, Witness: *scchk, Cold: *cold,
		FaultCampaign: *faults, FaultSeed: *faultSeed,
	}}
	if *apps != "" {
		in.Apps = strings.Split(*apps, ",")
	}
	if *procs != "" {
		var err error
		if in.Procs, err = experiments.ParseProcs(*procs); err != nil {
			fmt.Fprintf(stderr, "sweep: -%v\n", err)
			return 2
		}
	}
	if err := in.Validate(); err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		defer func() { trace.Stop(); f.Close() }()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "sweep:", err)
				return
			}
			runtime.GC() // materialize the final live heap
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "sweep:", err)
			}
			f.Close()
		}()
	}

	if *exp == "trace" {
		// History export is a single simulation, not a sweep; when the
		// NDJSON goes to stdout the human-readable report moves to stderr
		// so `sweep -exp trace | scchk` sees only the history.
		app := "radix"
		if len(in.Apps) > 0 {
			app = in.Apps[0]
		}
		out, report := io.Writer(nil), stdout
		if *traceOut == "-" {
			out, report = stdout, stderr
		} else {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(stderr, "sweep:", err)
				return 1
			}
			defer f.Close()
			out = f
		}
		res, err := experiments.TraceRun(in.Params, app, *traceModel, out)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		fmt.Fprintf(report, "trace: %s/%s: %d cycles; witness examined %d chunks, %d accesses, %d findings\n",
			*traceModel, app, res.Cycles, res.WitnessChunks, res.WitnessAccesses, len(res.WitnessViolations))
		return 0
	}

	// Run header: how the sweep will execute, so reported numbers carry
	// their execution mode.
	mode := "warm machine reuse (one machine per worker)"
	if *cold {
		mode = "cold (fresh machine per simulation)"
	}
	fmt.Fprintf(stdout, "sweep: %d parallel workers, %s\n\n", *par, mode)

	for _, e := range selected {
		ein, _ := e.Resolve(in) // in is valid, so Resolve cannot fail
		_, table, err := e.Run(ein)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		fmt.Fprintln(stdout, e.Title(ein))
		fmt.Fprint(stdout, table)
		fmt.Fprintln(stdout)
	}
	return 0
}
