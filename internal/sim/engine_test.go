package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		schedAt(e, at, func() { got = append(got, at) })
	}
	e.Run(nil)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		schedAt(e, 100, func() { got = append(got, i) })
	}
	e.Run(nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var at Time
	schedAfter(e, 7, func() {
		at = e.Now()
		schedAfter(e, 3, func() { at = e.Now() })
	})
	e.Run(nil)
	if at != 10 {
		t.Fatalf("nested After landed at %d, want 10", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	schedAt(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		schedAt(e, 5, func() {})
	})
	e.Run(nil)
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	schedAt(e, 5, func() { fired++ })
	schedAt(e, 15, func() { fired++ })
	e.RunUntil(10)
	if fired != 1 {
		t.Fatalf("fired %d events by t=10, want 1", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("clock at %d, want 10", e.Now())
	}
	e.Run(nil)
	if fired != 2 {
		t.Fatalf("fired %d events total, want 2", fired)
	}
}

func TestStopPredicateHaltsRun(t *testing.T) {
	e := NewEngine(1)
	n := 0
	for i := Time(1); i <= 100; i++ {
		schedAt(e, i, func() { n++ })
	}
	e.Run(func() bool { return n >= 10 })
	if n != 10 {
		t.Fatalf("ran %d events, want 10", n)
	}
}

func TestLimitPanicsOnRunaway(t *testing.T) {
	e := NewEngine(1)
	e.SetLimit(100)
	var tick func()
	tick = func() { schedAfter(e, 10, tick) }
	schedAfter(e, 10, tick)
	defer func() {
		if recover() == nil {
			t.Error("cycle limit exceeded without panic")
		}
	}()
	e.Run(nil)
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine(seed)
		var order []int
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			i := i
			schedAt(e, Time(r.Intn(50)), func() {
				order = append(order, i)
				if e.Rand().Intn(2) == 0 {
					schedAfter(e, Time(e.Rand().Intn(5)), func() { order = append(order, -i) })
				}
			})
		}
		e.Run(nil)
		return order
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: regardless of the insertion order of a set of timestamps, the
// engine fires them in nondecreasing time order and fires all of them.
func TestQuickOrdering(t *testing.T) {
	f := func(stamps []uint16) bool {
		e := NewEngine(1)
		var got []Time
		for _, s := range stamps {
			at := Time(s)
			schedAt(e, at, func() { got = append(got, at) })
		}
		e.Run(nil)
		if len(got) != len(stamps) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 17; i++ {
		schedAt(e, Time(i), func() {})
	}
	e.Run(nil)
	if e.Fired() != 17 {
		t.Fatalf("Fired() = %d, want 17", e.Fired())
	}
}
