package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"bulksc"
)

// TraceModels lists the machine models TraceRun can export, in the
// spelling `sweep -exp trace -trace-model` accepts.
func TraceModels() []string { return []string{"bulk", "sc", "rc", "sc++"} }

// TraceRun simulates one (app, model) cell and streams its memory-
// consistency history to out as NDJSON (internal/history format): the
// BulkSC model exports chunk-commit records in global commit order, the
// conventional models per-access records in perform order. The exported
// history carries exactly the serialization the machine claims, so piping
// it through cmd/scchk re-verifies the run offline:
//
//	sweep -exp trace -apps radix -trace-out - | scchk -
//
// The online witness checker runs alongside regardless of p.Witness so
// the Result records the online verdict the offline checker is compared
// against. Model "bulk" is BSC_dypvt, the paper's production variant.
// p.FaultCampaign applies to the run as it does to a sweep's cells, with
// the plan seeded from p.FaultSeed, the app and the model. procs, when
// positive, sets the processor count, with the arbiter tier and G-arbiter
// sharding the scaling study pairs with it; 0 keeps the variant's machine.
func TraceRun(p Params, app, model string, procs int, out io.Writer) (*bulksc.Result, error) {
	p = p.withDefaults()
	key := strings.ToLower(model)
	if key == "" {
		key = "bulk"
	}
	if !slices.Contains(TraceModels(), key) {
		return nil, fmt.Errorf("experiments: unknown trace model %q (valid: %s)",
			model, strings.Join(TraceModels(), ", "))
	}
	variant := key
	if key == "bulk" {
		variant = "dypvt"
	}
	cfg := bulksc.Variant(app, variant)
	if procs > 0 {
		cfg.Procs = procs
		cfg.NumArbiters = bulksc.DefaultArbitersFor(procs)
		cfg.GArbShards = bulksc.DefaultGArbShardsFor(cfg.NumArbiters)
	}
	plan, err := bulksc.NewFaultPlan(p.FaultCampaign, faultSeed(p.FaultSeed, app, key))
	if err != nil {
		return nil, err
	}
	cfg.Work = p.Work
	cfg.Seed = p.Seed
	cfg.Witness = true
	cfg.Faults = plan
	cfg.TraceWriter = out
	res, err := bulksc.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: trace export %s/%s: %w", model, app, err)
	}
	return res, nil
}
