package cache

import (
	"testing"

	"bulksc/internal/mem"
)

// BenchmarkL1Probe256 is the tag-array footprint of a 256-proc machine:
// 256 Table-2 L1s (256 sets × 4 ways), each filled from a 2048-line
// range, probed round-robin with lines from the same range (about half
// hit). Each line is probed in all 256 caches before the next, so the
// stream covers every set of every cache: the tag arrays together exceed
// a per-core L2, and the way size decides how many cache lines a probe
// touches.
func BenchmarkL1Probe256(b *testing.B) {
	const ncaches, span = 256, 2048
	caches := make([]*L1, ncaches)
	x := uint64(88172645463325252)
	rnd := func() mem.Line { // xorshift64: cheap, deterministic
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return mem.Line(x % span)
	}
	for i := range caches {
		caches[i] = NewL1(256, 4)
		for j := 0; j < 2*span; j++ {
			caches[i].Insert(rnd(), Shared)
		}
	}
	probes := make([]mem.Line, 4096)
	for i := range probes {
		probes[i] = rnd()
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if caches[i%ncaches].Probe(probes[i/ncaches%len(probes)]) != nil {
			hits++
		}
	}
	if b.N >= len(probes) && hits == 0 {
		b.Fatal("no probe hit")
	}
}
