package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"bulksc/internal/history"
)

// renderTimeline renders an event-mode history: an ASCII chart with one lane per
// processor and time bucketed into width columns, then each processor's
// commits, squashes, pre-arbitrations and squashed instructions. A cell
// shows the highest-ranked event that falls into it — by rank '.' idle,
// 'C' commit, 's' aliased squash, 'S' genuine squash, 'P'
// pre-arbitration — so the output does not depend on record order.
func renderTimeline(w io.Writer, h *history.History, width int) {
	const rank = ".CsSP"
	var end uint64 // one past the last record's cycle
	for _, c := range h.Chunks {
		end = max(end, c.At+1)
	}
	for _, e := range h.Events {
		end = max(end, e.At+1)
	}
	type agg struct{ commits, squashes, prearbs, wasted int }
	per := make([]agg, h.Procs())
	grid := make([][]byte, len(per))
	for p := range grid {
		grid[p] = bytes.Repeat([]byte{'.'}, width)
	}
	mark := func(proc int, at uint64, c byte) {
		cell := &grid[proc][at*uint64(width)/end]
		if strings.IndexByte(rank, c) > strings.IndexByte(rank, *cell) {
			*cell = c
		}
	}
	for _, c := range h.Chunks {
		per[c.Proc].commits++
		mark(c.Proc, c.At, 'C')
	}
	for _, e := range h.Events {
		a := &per[e.Proc]
		if e.Kind == history.KindPreArb {
			a.prearbs++
			mark(e.Proc, e.At, 'P')
			continue
		}
		a.squashes++
		a.wasted += e.Instrs
		if e.Genuine {
			mark(e.Proc, e.At, 'S')
		} else {
			mark(e.Proc, e.At, 's')
		}
	}
	if end == 0 {
		fmt.Fprintln(w, "(empty timeline)")
	} else {
		fmt.Fprintf(w, "timeline 0..%d cycles (C=commit, s=aliased squash, S=true squash, P=pre-arb)\n", end-1)
		for p, lane := range grid {
			fmt.Fprintf(w, "p%-2d |%s|\n", p, lane)
		}
	}
	fmt.Fprintf(w, "\n%-5s %9s %9s %9s %12s\n", "proc", "commits", "squashes", "prearbs", "wastedInstrs")
	for p, a := range per {
		fmt.Fprintf(w, "p%-4d %9d %9d %9d %12d\n", p, a.commits, a.squashes, a.prearbs, a.wasted)
	}
}
