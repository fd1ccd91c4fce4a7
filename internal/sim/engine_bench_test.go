package sim

import "testing"

// BenchmarkEngineSchedule measures the steady-state schedule+fire loop the
// whole simulator is built on: a self-rescheduling event population of
// realistic depth. Must report ~0 allocs/op — the heap records live inline
// in the engine's slice and AfterCall needs no closure capture.
func BenchmarkEngineSchedule(b *testing.B) {
	const population = 64 // typical live-event count of an 8-core machine
	e := NewEngine(1)
	var fire func(any)
	fire = func(arg any) {
		n := arg.(*int)
		*n++
		e.AfterCall(Time(1+*n%7), fire, arg)
	}
	counters := make([]int, population)
	for i := range counters {
		e.AfterCall(Time(i%5+1), fire, &counters[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// wideDelays reproduces the scheduling-delay histogram measured on a
// 256-proc BSC_dypvt radix/sjbb2k run: per 1000 events, 25 fire in the
// same cycle, 490 three cycles ahead, 250 six, 90 seven or eight, 60
// twenty-two and 28 after an off-chip access (294); the remaining 57 are
// spread over 1, 2, 4 and 5 cycles.
func wideDelays() []Time {
	spec := []struct {
		d Time
		n int
	}{{0, 25}, {1, 15}, {2, 14}, {3, 490}, {4, 14}, {5, 14}, {6, 250}, {7, 45}, {8, 45}, {22, 60}, {294, 28}}
	var ds []Time
	for _, s := range spec {
		for i := 0; i < s.n; i++ {
			ds = append(ds, s.d)
		}
	}
	// Deterministic shuffle so consecutive events draw mixed delays.
	for i := len(ds) - 1; i > 0; i-- {
		j := int(uint64(i) * 2654435761 % uint64(i+1))
		ds[i], ds[j] = ds[j], ds[i]
	}
	return ds
}

// BenchmarkEngineWide is the 256-proc footprint: about 16k live events,
// each rescheduling itself with a delay drawn from the measured 256-proc
// histogram, so every cycle fires and refills many slots at once. Must
// report 0 allocs/op.
func BenchmarkEngineWide(b *testing.B) {
	const population = 1 << 14
	e := NewEngine(1)
	ds := wideDelays()
	next := 0
	var fire func(any)
	fire = func(arg any) {
		*arg.(*int)++
		next++
		if next == len(ds) {
			next = 0
		}
		e.AfterCall(ds[next], fire, arg)
	}
	counters := make([]int, population)
	for i := range counters {
		e.AfterCall(ds[i%len(ds)], fire, &counters[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
