// Package sweepsrv is the sweep-as-a-service core behind cmd/sweepd: a
// long-lived HTTP/JSON daemon wrapping the experiments layer with a
// bounded job queue (explicit 429/Retry-After backpressure), a pool of
// persistent warm workers (one experiments.Worker — warm Runner + program
// memo — per pool slot), a content-addressed LRU result cache keyed by the
// canonical config hash, SSE/NDJSON progress streaming, and graceful
// shutdown that drains running jobs and fails queued ones.
//
// This file defines the job request model: the JSON surface a client
// submits, its canonicalization (defaults materialized, fields the chosen
// experiment ignores cleared), the content-addressed cache key derived
// from the canonical form, and the dispatcher that executes a canonical
// request through the experiment catalog.
package sweepsrv

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"bulksc/experiments"
)

// Request is the JSON body of POST /sweep: which experiment to run and on
// what configuration. Every field except Exp is optional; Canonicalize
// materializes the defaults. Two requests that canonicalize identically
// are the same job and share one cache entry — field order and whitespace
// never matter (JSON decoding erases them), and neither do explicitly
// spelled-out defaults or values for fields the chosen experiment ignores.
type Request struct {
	// Exp names an entry of experiments.Catalog (case-insensitive).
	Exp string `json:"exp"`
	// Apps is the application subset (default: the experiment's
	// catalog suite). Order is semantic — it is the row order of the
	// result — so it is preserved, not sorted. Apps must be distinct.
	Apps []string `json:"apps,omitempty"`
	// Work is the per-thread dynamic instruction budget (default 120000).
	Work int `json:"work,omitempty"`
	// Seed drives all simulation randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Procs lists machine sizes for the experiments that take them: the
	// scaling study runs every value, the arbiter ablation uses the
	// first. Defaults come from the catalog; cleared for every other
	// experiment.
	Procs []int `json:"procs,omitempty"`
	// Arbiters lists the arbiter counts of the arbiters ablation
	// (default from the catalog). Cleared for every other experiment.
	Arbiters []int `json:"arbiters,omitempty"`
	// Witness runs the online SC-witness checker on every SC-claiming
	// simulation of the sweep; a violation fails the job.
	Witness bool `json:"witness,omitempty"`
	// Faults names a fault-injection campaign applied to every
	// simulation (default "none"). Cleared for the faults experiment,
	// which iterates the whole campaign catalog itself.
	Faults string `json:"faults,omitempty"`
	// FaultSeed seeds the fault schedule (default 1; pinned to 1 when no
	// campaign is active, since it is then meaningless).
	FaultSeed int64 `json:"fault_seed,omitempty"`
}

// Canonicalize validates the request and returns its canonical form: Exp
// lower-cased, every default materialized, and every field the experiment
// ignores reset to its zero value. The canonical form is the job's
// semantic identity — Key hashes exactly this. The experiment catalog
// (experiments.Catalog) owns the defaults and the validation.
func (r Request) Canonicalize() (Request, error) {
	c := r
	c.Exp = strings.ToLower(strings.TrimSpace(c.Exp))
	e, ok := experiments.Lookup(c.Exp)
	if !ok {
		return Request{}, fmt.Errorf("unknown experiment %q (valid: %s)", r.Exp, strings.Join(experiments.Names(), ", "))
	}
	in, err := e.Resolve(experiments.Inputs{
		Params: experiments.Params{Apps: c.Apps, Work: c.Work, Seed: c.Seed, FaultCampaign: c.Faults, FaultSeed: c.FaultSeed},
		Procs:  c.Procs, Arbiters: c.Arbiters,
	})
	if err != nil {
		return Request{}, err
	}
	c.Apps, c.Work, c.Seed, c.Procs, c.Arbiters = in.Apps, in.Work, in.Seed, in.Procs, in.Arbiters
	c.Faults, c.FaultSeed = in.FaultCampaign, in.FaultSeed
	if c.Faults == "none" {
		c.FaultSeed = 1 // meaningless without a campaign; pin it
	}
	return c, nil
}

// keyVersion prefixes the hashed canonical encoding; bump it whenever the
// canonical form's meaning changes so stale cache entries can never be
// misattributed across versions.
const keyVersion = "sweepd-v1"

// Key returns the content-addressed cache key of the request: hex SHA-256
// over the versioned canonical JSON encoding. Call it on the canonical
// form (it canonicalizes defensively otherwise).
func (r Request) Key() (string, error) {
	c, err := r.Canonicalize()
	if err != nil {
		return "", err
	}
	// encoding/json emits struct fields in declaration order, so the
	// canonical encoding is deterministic byte-for-byte.
	buf, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(keyVersion))
	h.Write([]byte{'\n'})
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// JobOutput is a completed job's payload: the experiment's typed rows, its
// human-readable table, and the execution audit trail. Its JSON encoding
// is deterministic for a deterministic row set (encoding/json sorts map
// keys), which is what makes cached replays byte-identical.
type JobOutput struct {
	Exp   string `json:"exp"`
	Rows  any    `json:"rows"`
	Table string `json:"table"`
	// Cells counts the simulations the sweep executed.
	Cells int `json:"cells"`
	// Hash folds every cell's determinism hash (keyed by app and column)
	// into one order-independent 64-bit value, hex-encoded. For a fixed
	// canonical request it is bit-stable across Workers and across what
	// ran on them before — the service's cross-contamination tripwire: a
	// pool worker whose warm reset leaked state produces a different
	// hash than the same request run on a fresh Worker.
	Hash string `json:"hash"`
}

// cellHash mixes one cell's identity and determinism hash into a single
// word. Job-level hashes XOR these together, so the fold commutes and the
// job hash does not depend on completion order.
func cellHash(c experiments.Cell) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(b byte) { h ^= uint64(b); h *= prime }
	for i := 0; i < len(c.App); i++ {
		mix(c.App[i])
	}
	mix('/')
	for i := 0; i < len(c.Key); i++ {
		mix(c.Key[i])
	}
	d := c.Result.DeterminismHash()
	for i := 0; i < 8; i++ {
		mix(byte(d >> (8 * i)))
	}
	return h
}

// runExperiment executes a canonical request through the experiments
// layer. The base Params carry the execution context (p.Worker, the pool
// slot's warm Worker, and p.Ctx for cancellation); the request's fields
// overwrite the rest. onCell, when non-nil, observes every completed cell
// (already serialized by the experiments layer).
func runExperiment(req Request, p experiments.Params, onCell func(experiments.Cell)) (*JobOutput, error) {
	e, ok := experiments.Lookup(req.Exp)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", req.Exp)
	}
	out := &JobOutput{Exp: req.Exp}
	var fold uint64
	p.Apps = req.Apps
	p.Work = req.Work
	p.Seed = req.Seed
	p.Witness = req.Witness
	p.FaultCampaign = req.Faults
	p.FaultSeed = req.FaultSeed
	p.OnCell = func(c experiments.Cell) {
		out.Cells++
		fold ^= cellHash(c)
		if onCell != nil {
			onCell(c)
		}
	}

	var err error
	out.Rows, out.Table, err = e.Run(experiments.Inputs{Params: p, Procs: req.Procs, Arbiters: req.Arbiters})
	if err != nil {
		return nil, err
	}
	out.Hash = fmt.Sprintf("%016x", fold)
	return out, nil
}
