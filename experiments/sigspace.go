package experiments

import (
	"fmt"
	"strings"

	"bulksc"
	"bulksc/internal/sig"
)

// SigSpaceRow is one point of the signature design-space ablation (§6):
// BSC_dypvt with a given signature geometry, against RC and against the
// alias-free signature.
type SigSpaceRow struct {
	App      string
	Geometry string
	// SpeedupVsRC is RC-normalized performance.
	SpeedupVsRC float64
	// AliasSquashPct is the fraction of squashes caused purely by
	// signature aliasing.
	AliasSquashPct float64
	// ExtraInvsPer1k is the aliased bulk-invalidation rate.
	ExtraInvsPer1k float64
	// TrafficVsRC is total traffic normalized to RC.
	TrafficVsRC float64
}

// SigGeometries returns the swept design points: the production 2 Kbit
// encoding, a half-size signature, a double-size one, a different banking
// of the same budget, and a narrower address window.
func SigGeometries() []sig.Geometry {
	return []sig.Geometry{
		{Banks: 2, BankBits: 512, WindowBits: 16},  // 1 Kbit
		{Banks: 2, BankBits: 1024, WindowBits: 16}, // 2 Kbit (production)
		{Banks: 4, BankBits: 512, WindowBits: 16},  // 2 Kbit, more banks
		{Banks: 2, BankBits: 2048, WindowBits: 18}, // 4 Kbit, wider window
		{Banks: 2, BankBits: 1024, WindowBits: 13}, // 2 Kbit, narrow window
	}
}

// SigSpace sweeps the signature geometries over p.Apps.
func SigSpace(p Params) ([]SigSpaceRow, error) {
	geoms := SigGeometries()
	keys := []string{"rc"}
	for i := range geoms {
		keys = append(keys, fmt.Sprintf("g%d", i))
	}
	res, err := runMatrix(p, keys, func(app, k string) bulksc.Config {
		if k == "rc" {
			return bulksc.Variant(app, "rc")
		}
		var idx int
		fmt.Sscanf(k, "g%d", &idx)
		cfg := bulksc.Variant(app, "dypvt")
		cfg.CheckSC = false
		g := geoms[idx]
		cfg.SigGeometry = &g
		return cfg
	})
	if err != nil {
		return nil, err
	}
	var rows []SigSpaceRow
	for _, app := range orderedApps(p) {
		rc := res[app]["rc"]
		for i, g := range geoms {
			r := res[app][fmt.Sprintf("g%d", i)]
			s := r.Stats
			aliasPct := 0.0
			if s.Squashes > 0 {
				aliasPct = 100 * float64(s.SquashesAliased) / float64(s.Squashes)
			}
			rows = append(rows, SigSpaceRow{
				App:            app,
				Geometry:       g.String(),
				SpeedupVsRC:    float64(rc.Cycles) / float64(r.Cycles),
				AliasSquashPct: aliasPct,
				ExtraInvsPer1k: s.ExtraInvsPer1k(),
				TrafficVsRC:    float64(s.TotalTraffic()) / float64(rc.Stats.TotalTraffic()),
			})
		}
	}
	return rows, nil
}

// FormatSigSpace renders the ablation.
func FormatSigSpace(rows []SigSpaceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %-14s %9s %12s %12s %10s\n",
		"app", "geometry", "perf/RC", "aliasSq-%", "extraInv/1k", "traffic/RC")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %-14s %9.2f %12.1f %12.1f %10.2f\n",
			r.App, r.Geometry, r.SpeedupVsRC, r.AliasSquashPct, r.ExtraInvsPer1k, r.TrafficVsRC)
	}
	return b.String()
}
