package experiments

import (
	"fmt"
	"strings"

	"bulksc"
)

// The big-machine scaling study (an extension: the paper evaluates 8
// processors and argues scalability architecturally in §4.2.3). Each point
// runs BSC_dypvt at a machine size with the default arbiter tier and
// G-arbiter sharding for that size (bulksc.DefaultArbitersFor /
// DefaultGArbShardsFor) and records the quantities that would expose a
// scaling wall: squash rate, arbiter occupancy, G-arbiter involvement and
// per-instruction traffic.

// ScalingPoint is one (app, procs) cell of the scaling study.
type ScalingPoint struct {
	App             string
	Procs           int
	Arbiters        int
	Shards          int
	Cycles          uint64
	CommittedInstrs uint64
	// SquashedPct is the share of executed instructions later discarded.
	SquashedPct float64
	// AvgPendingW / NonEmptyWPct are the Table-4 arbiter-occupancy
	// metrics, here tracked across machine sizes.
	AvgPendingW  float64
	NonEmptyWPct float64
	// GArbSharePct is the share of commit requests that crossed arbiter
	// ranges and needed the (sharded) G-arbiter.
	GArbSharePct float64
	// GArbQueuedPer1k counts G-arbiter transactions parked behind a full
	// shard, per 1000 transactions — the coordinator-saturation signal.
	GArbQueuedPer1k float64
	// BytesPerInstr and MsgsPer1kInstr normalize interconnect load by
	// useful work, so the curve is comparable across machine sizes.
	BytesPerInstr  float64
	MsgsPer1kInstr float64
	// WallMs is the host wall-clock milliseconds the cell's simulation
	// loop took and EventsPerSec its event throughput (engine events
	// dispatched / wall seconds) — the simulator-cost axis of the curve,
	// which is what a scheduling or commit fan-out rewrite actually
	// moves. Host measurements: machine-dependent like every wall number
	// in BENCH_core.json, and never part of simulated state.
	WallMs       float64
	EventsPerSec float64
}

// Scaling runs the study across procCounts (e.g. 8, 16, 64, 256).
func Scaling(p Params, procCounts []int) ([]ScalingPoint, error) {
	keys := make([]string, len(procCounts))
	for i, n := range procCounts {
		if n < 1 || n > bulksc.MaxProcs {
			return nil, fmt.Errorf("scaling: %d processors out of range [1,%d]", n, bulksc.MaxProcs)
		}
		keys[i] = fmt.Sprintf("%d", n)
	}
	res, err := runMatrix(p, keys, func(app, k string) bulksc.Config {
		cfg := bulksc.Variant(app, "dypvt")
		cfg.CheckSC = false
		fmt.Sscanf(k, "%d", &cfg.Procs)
		cfg.NumArbiters = bulksc.DefaultArbitersFor(cfg.Procs)
		cfg.GArbShards = bulksc.DefaultGArbShardsFor(cfg.NumArbiters)
		return cfg
	})
	if err != nil {
		return nil, err
	}
	var points []ScalingPoint
	for _, app := range orderedApps(p) {
		for i, n := range procCounts {
			r := res[app][keys[i]]
			st := r.Stats
			pt := ScalingPoint{
				App:             app,
				Procs:           n,
				Arbiters:        bulksc.DefaultArbitersFor(n),
				Shards:          bulksc.DefaultGArbShardsFor(bulksc.DefaultArbitersFor(n)),
				Cycles:          r.Cycles,
				CommittedInstrs: st.CommittedInstrs,
				SquashedPct:     st.SquashedPct(),
				AvgPendingW:     st.AvgPendingWSigs(),
				NonEmptyWPct:    st.NonEmptyWListPct(),
			}
			if st.CommitRequests > 0 {
				pt.GArbSharePct = 100 * float64(st.GArbTransactions) / float64(st.CommitRequests)
			}
			if st.GArbTransactions > 0 {
				pt.GArbQueuedPer1k = 1000 * float64(st.GArbQueued) / float64(st.GArbTransactions)
			}
			if st.CommittedInstrs > 0 {
				pt.BytesPerInstr = float64(st.TotalTraffic()) / float64(st.CommittedInstrs)
				var msgs uint64
				for _, m := range st.Messages {
					msgs += m
				}
				pt.MsgsPer1kInstr = 1000 * float64(msgs) / float64(st.CommittedInstrs)
			}
			pt.WallMs = float64(r.WallNs) / 1e6
			if r.WallNs > 0 {
				pt.EventsPerSec = float64(r.EventsFired) / (float64(r.WallNs) / 1e9)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// FormatScaling renders the scaling curves, one line per (app, procs).
// The wall-ms and Mev/s columns are host-side simulator cost, not
// simulated metrics; they vary with the machine running the sweep.
func FormatScaling(points []ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %5s %4s %6s %12s %7s %8s %9s %6s %7s %7s %9s %8s %7s\n",
		"app", "procs", "arbs", "shards", "cycles", "sq%", "pendW", "wlist%", "garb%", "q/1k", "B/in", "msg/1ki", "wall-ms", "Mev/s")
	for _, p := range points {
		fmt.Fprintf(&b, "%-11s %5d %4d %6d %12d %7.2f %8.2f %9.1f %6.1f %7.1f %7.2f %9.2f %8.1f %7.2f\n",
			p.App, p.Procs, p.Arbiters, p.Shards, p.Cycles,
			p.SquashedPct, p.AvgPendingW, p.NonEmptyWPct,
			p.GArbSharePct, p.GArbQueuedPer1k, p.BytesPerInstr, p.MsgsPer1kInstr,
			p.WallMs, p.EventsPerSec/1e6)
	}
	return b.String()
}
