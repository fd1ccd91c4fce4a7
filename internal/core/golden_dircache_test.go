package core

import (
	"fmt"
	"testing"
)

// dirCacheGolden pins the directory-cache variant (§4.3.3): a module
// capped at DirCacheEntries displaces its least recently used entry with a
// one-line signature sent to every sharer. The determinism table runs no
// capped cell, so this table is the displacement path's bit-identity gate:
// each cell's DeterminismHash and its displacement count must stay as
// recorded, run cold and run warm on a Runner whose directories were
// grown by a larger uncapped run first. A mismatch prints the cell's new
// line.
var dirCacheGolden = []struct {
	app     string
	procs   int
	arbs    int
	entries int
	hash    uint64
	evicts  uint64
}{
	{"radix", 8, 1, 256, 0x4fdb75d084f940c9, 8034},
	{"radix", 8, 1, 2048, 0x68f891827137fb0c, 5349},
	{"ocean", 8, 1, 256, 0xa26ef363dfd001b2, 6105},
	{"ocean", 8, 1, 2048, 0xa9faef9c166acb8e, 3054},
	{"sjbb2k", 8, 1, 256, 0x9652ce63de3d6557, 11614},
	{"sjbb2k", 8, 1, 2048, 0x7d1947f82adca9d6, 4722},
	{"radix", 64, 8, 256, 0xc0242ddb92041d93, 244656},
}

func TestGoldenDirCache(t *testing.T) {
	if testing.Short() {
		t.Skip("directory-cache golden sweep skipped in -short")
	}
	for _, g := range dirCacheGolden {
		g := g
		name := fmt.Sprintf("%s/%dp/%darb/%d", g.app, g.procs, g.arbs, g.entries)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(g.app)
			cfg.Procs = g.procs
			cfg.Work = 10000
			cfg.NumArbiters = g.arbs
			cfg.GArbShards = DefaultGArbShardsFor(g.arbs)
			grow := cfg
			grow.Work *= 2
			warm := NewRunner()
			if _, err := warm.Run(grow); err != nil {
				t.Fatal(err)
			}
			cfg.DirCacheEntries = g.entries
			for _, r := range []*Runner{NewRunner(), warm} {
				res, err := r.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.SCViolations) > 0 || len(res.WitnessViolations) > 0 {
					t.Fatalf("SC violations %v, witness %v", res.SCViolations, res.WitnessViolations)
				}
				hash, evicts := res.DeterminismHash(), res.Stats.DirCacheEvicts
				if evicts == 0 {
					t.Fatal("no displacement: the cell does not exercise the directory cache")
				}
				if hash != g.hash || evicts != g.evicts {
					t.Fatalf("directory-cache drift (warm=%v): golden hash %#016x evicts %d, got\n\t{%q, %d, %d, %d, %#016x, %d},",
						r == warm, g.hash, g.evicts, g.app, g.procs, g.arbs, g.entries, hash, evicts)
				}
			}
		})
	}
}
