package directory

import (
	"testing"

	"bulksc/internal/cache"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
)

// BenchmarkDirectoryReset measures the warm-reuse reset of one directory
// module holding a realistic population of entries: each iteration fills
// the module with live lines (recycling the slab and free list built on
// the first pass) and drains it back to cold shape with Reset. After
// warmup the fill-and-drain cycle must be allocation-free — the entry
// slab, bucket arrays and free list are retained arenas — so allocs/op
// is the regression gate here, mirroring what a sweep worker pays per
// simulation.
func BenchmarkDirectoryReset(b *testing.B) {
	eng := sim.NewEngine(1)
	st := stats.New()
	net := network.New(eng, st)
	l2 := cache.NewL2(1024, 8)
	d := New(0, eng, net, st, l2)

	const lines = 2048
	fill := func() {
		for i := 1; i <= lines; i++ {
			e := d.getOrCreate(mem.Line(i))
			for p := 0; p < 4; p++ {
				if i&(1<<p) != 0 {
					e.sharers.Add(p, &d.shar)
				}
			}
		}
	}
	fill()
	d.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		d.Reset()
	}
}
