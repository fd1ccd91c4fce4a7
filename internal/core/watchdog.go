package core

import (
	"fmt"
	"strings"

	"bulksc/internal/sim"
)

// DefaultWatchdogWindow is the no-progress window (in cycles) before the
// liveness watchdog declares a livelock. It is enormous compared to every
// latency in the machine (the commit round trip is ~30 cycles), so it can
// never fire on a fault-free run that is merely slow.
const DefaultWatchdogWindow = 400_000

// starvationMinEvents is the minimum number of new denials+squashes a
// processor must accumulate inside a no-commit window before the watchdog
// calls it starved. A processor that is merely waiting (e.g. spinning on a
// barrier while committing empty spin chunks, or stalled on a long memory
// chain) generates no such events and is left alone; only an active
// deny/squash/retry loop trips the detector.
const starvationMinEvents = 16

// WatchdogError reports a liveness failure detected by the watchdog.
type WatchdogError struct {
	// Cycle is the engine time at which the stall was declared.
	Cycle uint64
	// Kind is "global-stall" (no commit progress machine-wide) or
	// "starvation" (specific processors stuck in a deny/squash loop).
	Kind string
	// Procs lists the starved processors (empty for a global stall).
	Procs []int
	// Diag is a human-readable diagnostic: recent denied chunks and
	// squash chains per starved processor plus arbiter occupancy.
	Diag string
}

func (e *WatchdogError) Error() string {
	if len(e.Procs) > 0 {
		return fmt.Sprintf("liveness watchdog: %s of procs %v at cycle %d: %s", e.Kind, e.Procs, e.Cycle, e.Diag)
	}
	return fmt.Sprintf("liveness watchdog: %s at cycle %d: %s", e.Kind, e.Cycle, e.Diag)
}

// watchdog polls the machine for commit progress. All observations are
// read-only: the polls add events to the engine but never mutate simulated
// state, and the engine orders equal-time events by insertion sequence, so
// the relative order of all other events — and therefore the simulated
// execution and its determinism hash — is unchanged. The hashneutral lint
// pass holds the polls to that contract (startWatchdog is wiring, not
// observation, and stays unannotated).
//
//sim:observer
type watchdog struct {
	//sim:observes
	m        *machine
	window   uint64
	interval sim.Time // cycles between polls

	// Global no-progress detector.
	lastProgress uint64
	lastChange   uint64 // cycle at which progress last advanced

	// Per-processor starvation detector (BulkSC processors only).
	commitsAt []uint64 // commit count at window start
	eventsAt  []uint64 // denials+squashes at window start
	startAt   []uint64 // cycle of window start
}

// startWatchdog attaches a watchdog to m and schedules its first poll.
// The three per-proc trail arrays are carved out of the machine's
// wdScratch so a warm runner (and a big machine) does not reallocate them
// every run; full slice expressions keep the sub-slices from growing into
// each other.
func startWatchdog(m *machine, window uint64) {
	if window == 0 {
		window = DefaultWatchdogWindow
	}
	n := len(m.bulkProcs)
	if cap(m.wdScratch) < 3*n {
		m.wdScratch = make([]uint64, 3*n)
	}
	buf := m.wdScratch[:3*n]
	clear(buf)
	m.wdScratch = buf
	w := &watchdog{
		m:         m,
		window:    window,
		commitsAt: buf[0*n : 1*n : 1*n],
		eventsAt:  buf[1*n : 2*n : 2*n],
		startAt:   buf[2*n : 3*n : 3*n],
	}
	w.interval = sim.Time(window / 4)
	if w.interval == 0 {
		w.interval = 1
	}
	m.eng.AfterCall(w.interval, watchdogPollCB, w)
}

// watchdogPollCB is the watchdog's periodic poll: check, then re-arm
// unless the run is over or a verdict is in. It is wiring like
// startWatchdog, so it stays outside the observer contract.
func watchdogPollCB(arg any) {
	w := arg.(*watchdog)
	m := w.m
	if m.watchdogErr != nil || m.allDone() {
		return
	}
	w.check(uint64(m.eng.Now()))
	if m.watchdogErr == nil {
		m.eng.AfterCall(w.interval, watchdogPollCB, w)
	}
}

// check runs both detectors at cycle now.
func (w *watchdog) check(now uint64) {
	m := w.m
	// Global detector: total committed work across all models. Chunks
	// covers BulkSC commit progress; CommittedInstrs covers both BulkSC
	// and the conventional processors' retirement.
	progress := m.st.Chunks + m.st.CommittedInstrs
	if progress != w.lastProgress {
		w.lastProgress = progress
		w.lastChange = now
	} else if now-w.lastChange >= w.window {
		//lint:observer verdict delivery: the store halts the run (Run's stop predicate); unreachable on any healthy execution, so goldens never see it
		m.watchdogErr = &WatchdogError{
			Cycle: now,
			Kind:  "global-stall",
			Diag: fmt.Sprintf("no commit progress for %d cycles (chunks=%d instrs=%d); %s",
				now-w.lastChange, m.st.Chunks, m.st.CommittedInstrs, w.arbiterDiag()),
		}
		return
	}

	// Per-processor detector: a BulkSC processor that commits nothing for
	// a full window while racking up denials and squashes is starved.
	var starved []int
	var diag strings.Builder
	for i, p := range m.bulkProcs {
		commits, denials, squashes := p.Progress()
		events := denials + squashes
		if commits != w.commitsAt[i] || p.Finished() {
			w.commitsAt[i] = commits
			w.eventsAt[i] = events
			w.startAt[i] = now
			continue
		}
		if now-w.startAt[i] >= w.window && events-w.eventsAt[i] >= starvationMinEvents {
			starved = append(starved, p.ID())
			//lint:observer LivenessTrail formats a fixed ring buffer read-only; the higher-order forEach iteration defeats the mutation summary
			trail := p.LivenessTrail()
			fmt.Fprintf(&diag, "proc %d: 0 commits for %d cycles, +%d denials/squashes (totals: %d commits, %d denials, %d squashes) trail: %s; ",
				p.ID(), now-w.startAt[i], events-w.eventsAt[i], commits, denials, squashes, trail)
		}
	}
	if len(starved) > 0 {
		//lint:observer verdict delivery: the store halts the run (Run's stop predicate); unreachable on any healthy execution, so goldens never see it
		m.watchdogErr = &WatchdogError{
			Cycle: now,
			Kind:  "starvation",
			Procs: starved,
			Diag:  diag.String() + w.arbiterDiag(),
		}
	}
}

// arbiterDiag summarizes arbiter occupancy for the failure diagnostic.
func (w *watchdog) arbiterDiag() string {
	var b strings.Builder
	b.WriteString("arbiters[")
	for i, a := range w.m.arbs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d: %d pending W", a.ID, a.Pending())
		if l := a.Locked(); l >= 0 {
			fmt.Fprintf(&b, " prearb-locked by proc %d", l)
		}
	}
	b.WriteString("]")
	return b.String()
}
