package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// ref_hashes.json holds the determinism hash of every cell the cell
// workloads run, per workload and simulation seed, from a run of the
// program the benchmark was defined on. A cell whose hash differs counts
// in core.hash_changed_cells: zero means the simulated execution is bit
// for bit the reference one. Regenerate with -write-ref only when a change
// deliberately alters simulated behaviour.
//
//go:embed ref_hashes.json
var refJSON []byte

// refTable: workload → simulation seed → cell id → hex hash.
type refTable map[string]map[string]map[string]string

var refs = func() refTable {
	var t refTable
	if err := json.Unmarshal(refJSON, &t); err != nil {
		panic("perfbench: embedded ref_hashes.json: " + err.Error())
	}
	return t
}()

func refHash(workload string, simSeed int64, id string) (string, bool) {
	h, ok := refs[workload][strconv.FormatInt(simSeed, 10)][id]
	return h, ok
}

// writeReference runs one pass of every cell workload for every seed of the
// pool and writes the hashes of the cells that succeed.
func writeReference(path string) error {
	t := refTable{}
	runners := newRunners(runtime.NumCPU(), nil)
	for name, mk := range map[string]func(int64, bool) func() []cell{
		"fig9-8p":    fig9Cells,
		"scale-256p": scaleCells,
		"sc-check":   scCheckCells,
	} {
		t[name] = make(map[string]map[string]string)
		// Workload seeds 0..len(simSeeds)-1 select every pool entry once.
		for seed := range simSeeds {
			p := runPass(runners, mk(int64(seed), false)(), nil)
			sim := p.cells[0].cfg.Seed
			m := make(map[string]string)
			for i := range p.outs {
				if o := &p.outs[i]; o.ok() {
					m[p.cells[i].id()] = o.hash
				}
			}
			t[name][strconv.FormatInt(sim, 10)] = m
			fmt.Fprintf(os.Stderr, "%s simulation seed %d: %d of %d cells\n", name, sim, len(m), len(p.outs))
		}
	}
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
