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
// machine (bulk, sc, rc, sc++), -apps its one application (default radix)
// and -procs its one machine size (default 8); a second value of either
// is a usage error. It is excluded from -exp all.
//
// The -work flag sets the per-thread instruction budget; larger runs give
// steadier statistics (the first 30% is always excluded as warmup).
//
// Sweeps execute on a fixed pool of -parallel workers (default NumCPU),
// each owning one warm machine that is reset in place between
// simulations — bit-identical to a fresh machine (golden-tested; to rule
// reuse out, rerun a cell with cmd/bulksim); workload programs are
// generated once per (app, procs, work, seed) and shared.
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

// run is the testable entry point: it parses and validates args (an
// unknown value exits 2 with the valid list), executes the selected
// experiments, and writes reports to stdout and diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	c, ok := parse(args, stderr)
	if !ok {
		return 2
	}
	return c.execute(stdout, stderr)
}

// command is one parsed and validated sweep invocation.
type command struct {
	exp      string
	selected []experiments.Experiment // empty for -exp trace
	in       experiments.Inputs

	traceOut, traceModel              string
	cpuprofile, memprofile, tracefile string
}

// parse parses args and validates every enumerated flag against its
// catalog, so a typo fails fast with the list of valid values instead of
// running half a sweep. It starts no simulation; on failure it reports to
// stderr and returns false.
func parse(args []string, stderr io.Writer) (*command, bool) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), ", ")+", trace, all")
		work      = fs.Int("work", 120_000, "dynamic instructions per thread")
		seed      = fs.Int64("seed", 1, "simulation seed")
		apps      = fs.String("apps", "", "comma-separated subset of applications (default: the experiment's own suite)")
		procs     = fs.String("procs", "", "comma-separated core counts: the scaling study runs every value; the arbiter ablation uses the first; trace takes one (default: the experiment's own)")
		par       = fs.Int("parallel", 0, "parallel workers, one warm machine each (default: NumCPU)")
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
		return nil, false
	}
	c := &command{
		exp: *exp, traceOut: *traceOut, traceModel: *traceModel,
		cpuprofile: *cpuprofile, memprofile: *memprofile, tracefile: *tracefile,
	}

	switch c.exp {
	case "all":
		for _, e := range experiments.Catalog() {
			if e.OwnCampaigns && *faults != "none" {
				// The whole sweep already runs under the campaign; a
				// report iterating every campaign would rerun it again.
				continue
			}
			c.selected = append(c.selected, e)
		}
	case "trace":
		if !slices.Contains(experiments.TraceModels(), strings.ToLower(c.traceModel)) {
			fmt.Fprintf(stderr, "sweep: unknown trace model %q (valid: %s)\n", c.traceModel, strings.Join(experiments.TraceModels(), ", "))
			return nil, false
		}
	default:
		e, ok := experiments.Lookup(c.exp)
		if !ok {
			fmt.Fprintf(stderr, "sweep: unknown experiment %q (valid: %s, trace, all)\n", c.exp, strings.Join(experiments.Names(), ", "))
			return nil, false
		}
		c.selected = append(c.selected, e)
	}
	if *par < 0 {
		fmt.Fprintf(stderr, "sweep: -parallel must be >= 0 (0 = NumCPU)\n")
		return nil, false
	}
	if *par == 0 {
		*par = runtime.NumCPU()
	}
	c.in = experiments.Inputs{Params: experiments.Params{
		Work: *work, Seed: *seed, Parallelism: *par, Witness: *scchk,
		FaultCampaign: *faults, FaultSeed: *faultSeed,
	}}
	if *apps != "" {
		c.in.Apps = strings.Split(*apps, ",")
	}
	if *procs != "" {
		var err error
		if c.in.Procs, err = experiments.ParseProcs(*procs); err != nil {
			fmt.Fprintf(stderr, "sweep: -%v\n", err)
			return nil, false
		}
	}
	if err := c.in.Validate(); err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return nil, false
	}
	if c.exp == "trace" && (len(c.in.Apps) > 1 || len(c.in.Procs) > 1) {
		fmt.Fprintf(stderr, "sweep: -exp trace exports one run: give at most one -apps and one -procs value (got %d and %d)\n",
			len(c.in.Apps), len(c.in.Procs))
		return nil, false
	}
	return c, true
}

// execute runs a parsed command and returns its exit code.
func (c *command) execute(stdout, stderr io.Writer) int {
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
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
	if c.tracefile != "" {
		f, err := os.Create(c.tracefile)
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
	if c.memprofile != "" {
		defer func() {
			f, err := os.Create(c.memprofile)
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

	if c.exp == "trace" {
		// History export is a single simulation, not a sweep; when the
		// NDJSON goes to stdout the human-readable report moves to stderr
		// so `sweep -exp trace | scchk` sees only the history.
		app, procs := "radix", 0
		if len(c.in.Apps) > 0 {
			app = c.in.Apps[0]
		}
		if len(c.in.Procs) > 0 {
			procs = c.in.Procs[0]
		}
		out, report := io.Writer(nil), stdout
		if c.traceOut == "-" {
			out, report = stdout, stderr
		} else {
			f, err := os.Create(c.traceOut)
			if err != nil {
				fmt.Fprintln(stderr, "sweep:", err)
				return 1
			}
			defer f.Close()
			out = f
		}
		res, err := experiments.TraceRun(c.in.Params, app, c.traceModel, procs, out)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		fmt.Fprintf(report, "trace: %s/%s: %d cycles; witness examined %d chunks, %d accesses, %d findings\n",
			c.traceModel, app, res.Cycles, res.WitnessChunks, res.WitnessAccesses, len(res.WitnessViolations))
		return 0
	}

	// Run header: how many workers the sweep runs on.
	fmt.Fprintf(stdout, "sweep: %d parallel workers, warm machine reuse (one machine per worker)\n\n", c.in.Parallelism)

	for _, e := range c.selected {
		ein, _ := e.Resolve(c.in) // c.in is valid, so Resolve cannot fail
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
