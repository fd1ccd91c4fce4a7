package experiments

import (
	"fmt"
	"strings"

	"bulksc"
)

// FaultRow summarizes one (application, campaign) fault-injection run of
// BSC_dypvt: what was injected and how the machine's recovery machinery
// responded (denials, squashes, retries, forward-progress escalations).
type FaultRow struct {
	App      string
	Campaign string
	Cycles   uint64
	// Machine-side reaction counters.
	CommitRequests  uint64
	CommitDenies    uint64
	CommitGrants    uint64
	Squashes        uint64
	SquashesAliased uint64
	ChunkShrinks    uint64
	PreArbitrations uint64
	// Injected is what the fault plan actually did.
	Injected bulksc.FaultCounters
}

// FaultCampaignKeys lists the campaigns of the fault report: every
// terminating catalog campaign, "none" first as the fault-free baseline.
// Non-terminating campaigns (livelock) exist only to exercise the
// watchdog and are excluded — they would (correctly) never finish.
func FaultCampaignKeys() []string {
	var out []string
	for _, c := range bulksc.FaultCatalog() {
		if c.Terminating {
			out = append(out, c.Name)
		}
	}
	return out
}

// FaultReport runs BSC_dypvt under every terminating fault campaign and
// reports the injected-fault and recovery counters per application. Every
// run keeps the SC replay checker and the online witness checker on: the
// report doubles as a soundness demonstration — faults may cost cycles,
// never correctness.
//
// Each campaign runs as its own matrix, but Params.OnCell sees one sweep:
// cells are keyed "<campaign>/dypvt", so equal cells of different
// campaigns stay distinct, and Index/Total count across the whole report.
// The per-run fault seed is still derived from the "dypvt" key alone.
func FaultReport(p Params) ([]FaultRow, error) {
	p = p.withDefaults()
	campaigns := FaultCampaignKeys()
	var rows []FaultRow
	for ci, campaign := range campaigns {
		pc := p
		pc.FaultCampaign = campaign
		pc.Witness = true
		if p.OnCell != nil {
			pc.OnCell = func(c Cell) {
				c.Key = campaign + "/" + c.Key
				c.Index += ci * len(p.Apps)
				c.Total = len(campaigns) * len(p.Apps)
				p.OnCell(c)
			}
		}
		res, err := runMatrix(pc, []string{"dypvt"}, func(app, _ string) bulksc.Config {
			cfg := bulksc.Variant(app, "dypvt")
			cfg.CheckSC = true
			return cfg
		})
		if err != nil {
			return nil, fmt.Errorf("campaign %s: %w", campaign, err)
		}
		for _, app := range orderedApps(p) {
			r := res[app]["dypvt"]
			st := r.Stats
			rows = append(rows, FaultRow{
				App:             app,
				Campaign:        campaign,
				Cycles:          r.Cycles,
				CommitRequests:  st.CommitRequests,
				CommitDenies:    st.CommitDenies,
				CommitGrants:    st.CommitGrants,
				Squashes:        st.Squashes,
				SquashesAliased: st.SquashesAliased,
				ChunkShrinks:    st.ChunkShrinks,
				PreArbitrations: st.PreArbitrations,
				Injected:        r.FaultCounters,
			})
		}
	}
	return rows, nil
}

// FormatFaultReport renders the rows grouped by campaign.
func FormatFaultReport(rows []FaultRow) string {
	var b strings.Builder
	last := ""
	for _, r := range rows {
		if r.Campaign != last {
			if last != "" {
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "--- campaign %s ---\n", r.Campaign)
			fmt.Fprintf(&b, "%-11s%12s%10s%10s%10s%10s%9s%9s%9s  %s\n",
				"app", "cycles", "commits", "denies", "grants", "squash", "aliased", "shrinks", "prearb", "injected")
			last = r.Campaign
		}
		fmt.Fprintf(&b, "%-11s%12d%10d%10d%10d%10d%9d%9d%9d  %s\n",
			r.App, r.Cycles, r.CommitRequests, r.CommitDenies, r.CommitGrants,
			r.Squashes, r.SquashesAliased, r.ChunkShrinks, r.PreArbitrations,
			r.Injected.String())
	}
	return b.String()
}
