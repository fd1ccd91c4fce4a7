package main

import (
	"bytes"
	"fmt"

	"bulksc"
	"bulksc/internal/history"
	"bulksc/internal/history/gk"
)

// scCheckWork keeps each exported history to a few megabytes of NDJSON.
const scCheckWork = 10_000

// scCheckCells runs every app under BSC_dypvt (chunk records) and SC
// (per-access records) with the online witness on and the history exported
// into memory; each cell then reads the history back and checks it offline.
func scCheckCells(seed int64, short bool) func() []cell {
	work := scCheckWork
	if short {
		work = 1000
	}
	return func() []cell {
		var cells []cell
		for _, app := range bulksc.Apps() {
			for _, v := range []string{"dypvt", "sc"} {
				cfg := bulksc.Variant(app, v)
				cfg.CheckSC = false
				cfg.Witness = true
				cfg.Work = work
				cfg.Seed = simSeedFor(seed)
				buf := &bytes.Buffer{}
				cfg.TraceWriter = buf
				cells = append(cells, cell{app: app, key: v, cfg: cfg, after: checkHistory(buf)})
			}
		}
		return cells
	}
}

// checkHistory reads the cell's exported history and verifies it with the
// offline checker, which must agree with the online witness.
func checkHistory(buf *bytes.Buffer) func(c *cell, res *bulksc.Result, sp *spans, out *cellOut) {
	return func(c *cell, res *bulksc.Result, sp *spans, out *cellOut) {
		n := buf.Len()
		// Drop the history's storage, not just its contents: the cell, and
		// so the buffer, lives until the run ends.
		defer func() { *buf = bytes.Buffer{} }()
		end := sp.start("history.read")
		h, err := history.Read(buf)
		end()
		if err != nil {
			out.err = fmt.Errorf("%s: history.Read: %w", c.id(), err)
			return
		}
		end = sp.start("gk.check")
		rep := gk.Check(h, gk.Options{})
		end()
		ops := uint64(h.Ops())
		sp.add("history.bytes", int64(n))
		sp.add("history.ops", int64(ops))
		switch {
		case !rep.Ok():
			out.wrong = fmt.Sprintf("%s: offline check: %s", c.id(), rep.Strings()[0])
		case rep.Chunks() != res.WitnessChunks || rep.Accesses() != res.WitnessAccesses:
			out.wrong = fmt.Sprintf("%s: offline check examined %d chunks/%d accesses, witness %d/%d",
				c.id(), rep.Chunks(), rep.Accesses(), res.WitnessChunks, res.WitnessAccesses)
		default:
			out.verified = ops
		}
	}
}

func runSCCheck(c runCfg) (*result, error) {
	return runCellWorkload(c, cellWorkload{
		name:  "sc-check",
		cells: scCheckCells(c.seed, c.short),
		finish: func(r *result, passes []*pass, sp *spans) {
			t := sumPasses(passes, 0)
			r.m["verified_kops_per_s"] = ratio(float64(t.verified)/1e3, float64(t.wallNs)/1e9)
			ops := float64(sp.get("history.ops").ns)
			r.m["history.bytes_per_op"] = ratio(float64(sp.get("history.bytes").ns), ops)
			r.m["history.read_ns_per_op"] = ratio(float64(sp.get("history.read").ns), ops)
			r.m["gk.check_ns_per_op"] = ratio(float64(sp.get("gk.check").ns), ops)
		},
	})
}
