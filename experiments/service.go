// Service-facing extensions of the experiments package: the Worker every
// sweep executes on, and the progress/cancellation plumbing (Params.Ctx,
// Params.OnCell) that cmd/sweepd builds on. A batch sweep and a
// long-lived sweep service run cells the same way and differ only in the
// Workers' lifetimes: the CLI's sweeps construct Parallelism Workers and
// throw them away, while a daemon keeps one Worker per pool slot alive
// across thousands of jobs, reusing the machine arena (the bit-identical
// warm reset) and the memoized workload programs across job boundaries.
package experiments

import (
	"context"

	"bulksc"
)

// Worker is one sweep-execution slot: a warm bulksc.Runner plus a bounded
// memo of generated workload programs. Assigning a Worker to
// Params.Worker makes the sweep execute serially on it (deterministic
// cell order — what a streaming service wants for stable progress rows),
// and both survive into the next sweep.
//
// A Worker is NOT safe for concurrent use: it is one machine. A service
// pool holds one Worker per pool goroutine, exactly as a sweep's own pool
// holds one Worker per goroutine.
type Worker struct {
	runner *bulksc.Runner
	progs  *progCache
}

// workerProgCap bounds a program memo. A long-lived daemon sees an
// unbounded stream of (app, procs, work, seed) tuples; the memo must not
// grow with it. 64 programs comfortably covers a service's hot mix (the
// full 13-app × default-geometry sweep plus slack). Within one sweep the
// cap never costs a regeneration: a sweep dispatches each application's
// cells consecutively, so an evicted program is not asked for again.
const workerProgCap = 64

// NewWorker constructs the machine arena and an empty program memo. The
// first sweep on the worker pays construction cost; every later one
// reuses the arena.
func NewWorker() *Worker {
	return &Worker{runner: bulksc.NewRunner(), progs: newProgCache()}
}

// run simulates one cell on the worker's warm machine.
func (w *Worker) run(app string, cfg bulksc.Config) (*bulksc.Result, error) {
	prog, err := w.progs.get(app, cfg.Procs, cfg.Work, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return w.runner.RunProgram(cfg, prog)
}

// Cell reports one completed simulation of a sweep to Params.OnCell.
type Cell struct {
	// App and Key identify the cell within its sweep (key is the
	// experiment-specific column: a Figure 9 variant, a chunk size, a
	// scaling proc count, ...).
	App, Key string
	// Index is the cell's position in dispatch order; Total the sweep's
	// cell count. On one Worker, completion order equals dispatch order,
	// so Index is monotonic.
	Index, Total int
	// Result is the completed simulation's full result. Callbacks must
	// treat it as read-only: the same pointer lands in the sweep's own
	// result matrix.
	Result *bulksc.Result
}

// ctxErr returns the context's error, tolerating the nil context that
// every pre-service caller passes.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
