package core

import (
	"fmt"
	"sort"
	"strings"

	"bulksc/internal/chunk"
	"bulksc/internal/mem"
	"bulksc/internal/sim"
)

// TimelineEventKind classifies execution-timeline events.
type TimelineEventKind int

const (
	// EvCommit is a chunk commit (at its arbiter-grant instant).
	EvCommit TimelineEventKind = iota
	// EvSquash is a squash (possibly taking several chunks).
	EvSquash
	// EvPreArb is a forward-progress pre-arbitration grant.
	EvPreArb
)

func (k TimelineEventKind) String() string {
	return [...]string{"commit", "squash", "prearb"}[k]
}

// TimelineEvent is one recorded event of a run.
type TimelineEvent struct {
	At      uint64
	Proc    int
	Kind    TimelineEventKind
	Order   uint64 // commit order (EvCommit)
	Instrs  int    // committed or discarded instructions
	Victims int    // chunks squashed together (EvSquash)
	Genuine bool   // squash cause: true sharing vs signature aliasing
}

// Timeline is a run's recorded event stream, in time order.
type Timeline []TimelineEvent

// timelineRec is the timeline's observer (RecordTimeline): it stamps each
// commit, squash and pre-arbitration event with the engine's clock.
type timelineRec struct {
	//sim:observes
	eng    *sim.Engine
	events Timeline
}

func (r *timelineRec) add(ev TimelineEvent) {
	ev.At = uint64(r.eng.Now())
	r.events = append(r.events, ev)
}

func (r *timelineRec) CommitChunk(ch *chunk.Chunk) {
	r.add(TimelineEvent{Proc: ch.Proc, Kind: EvCommit, Order: ch.CommitOrder, Instrs: ch.Executed})
}

func (r *timelineRec) Squash(proc, victims, instrs int, genuine bool) {
	r.add(TimelineEvent{Proc: proc, Kind: EvSquash, Victims: victims, Instrs: instrs, Genuine: genuine})
}

func (r *timelineRec) PreArb(proc int)                                { r.add(TimelineEvent{Proc: proc, Kind: EvPreArb}) }
func (*timelineRec) Access(int, uint64, bool, mem.Addr, uint64, bool) {}

// Lanes renders an ASCII chart: one lane per processor, time bucketed into
// width columns; each cell shows the dominant event ('C' commits,
// 's' aliased squashes, 'S' genuine squashes, 'P' pre-arbitration,
// '.' idle).
func (tl Timeline) Lanes(procs int, width int) string {
	if len(tl) == 0 || width <= 0 {
		return "(empty timeline)\n"
	}
	end := tl[len(tl)-1].At + 1
	bucket := func(at uint64) int {
		b := int(at * uint64(width) / end)
		if b >= width {
			b = width - 1
		}
		return b
	}
	grid := make([][]byte, procs)
	for p := range grid {
		grid[p] = []byte(strings.Repeat(".", width))
	}
	rank := func(c byte) int {
		switch c {
		case 'P':
			return 4
		case 'S':
			return 3
		case 's':
			return 2
		case 'C':
			return 1
		}
		return 0
	}
	for _, ev := range tl {
		if ev.Proc < 0 || ev.Proc >= procs {
			continue
		}
		var c byte
		switch ev.Kind {
		case EvCommit:
			c = 'C'
		case EvSquash:
			c = 's'
			if ev.Genuine {
				c = 'S'
			}
		case EvPreArb:
			c = 'P'
		}
		b := bucket(ev.At)
		if rank(c) > rank(grid[ev.Proc][b]) {
			grid[ev.Proc][b] = c
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "timeline 0..%d cycles (C=commit, s=aliased squash, S=true squash, P=pre-arb)\n", end-1)
	for p := 0; p < procs; p++ {
		fmt.Fprintf(&out, "p%-2d |%s|\n", p, grid[p])
	}
	return out.String()
}

// Summary aggregates the timeline into per-processor counts.
func (tl Timeline) Summary(procs int) string {
	type agg struct{ commits, squashes, prearbs, wasted int }
	per := make([]agg, procs)
	for _, ev := range tl {
		if ev.Proc < 0 || ev.Proc >= procs {
			continue
		}
		switch ev.Kind {
		case EvCommit:
			per[ev.Proc].commits++
		case EvSquash:
			per[ev.Proc].squashes++
			per[ev.Proc].wasted += ev.Instrs
		case EvPreArb:
			per[ev.Proc].prearbs++
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "%-5s %9s %9s %9s %12s\n", "proc", "commits", "squashes", "prearbs", "wastedInstrs")
	for p, a := range per {
		fmt.Fprintf(&out, "p%-4d %9d %9d %9d %12d\n", p, a.commits, a.squashes, a.prearbs, a.wasted)
	}
	return out.String()
}

// sortTimeline orders events by time then processor (stable for rendering).
func sortTimeline(tl Timeline) {
	sort.SliceStable(tl, func(i, j int) bool {
		if tl[i].At != tl[j].At {
			return tl[i].At < tl[j].At
		}
		return tl[i].Proc < tl[j].Proc
	})
}
