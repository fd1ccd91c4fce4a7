package sim

import (
	"testing"
	"unsafe"
)

// TestRecordLayout pins the event record sizes: a wheel record is only
// {callback, payload}, and only the overflow heap pays for (at, seq).
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(call{}); got != 24 {
		t.Errorf("sizeof(call) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Errorf("sizeof(event) = %d, want 40", got)
	}
}

// TestSteadyStateSchedulingAllocFree: once the slot arrays are warm,
// scheduling a typed callback with a pointer payload allocates nothing,
// and a Reset keeps it so.
func TestSteadyStateSchedulingAllocFree(t *testing.T) {
	e := NewEngine(1)
	n := 0
	cb := func(arg any) { *arg.(*int)++ }
	warm := func() {
		for i := 0; i < 64; i++ {
			e.AfterCall(Time(i%8), cb, &n)
		}
		e.Run(nil)
	}
	measure := func(phase string) {
		if a := testing.AllocsPerRun(100, func() {
			e.AfterCall(3, cb, &n)
			e.Step()
		}); a != 0 {
			t.Errorf("%s: AfterCall allocates %.1f per event", phase, a)
		}
		if a := testing.AllocsPerRun(100, func() {
			e.AtCall(e.Now()+1, cb, &n)
			e.AtCall(e.Now()+1, cb, &n)
			e.Step()
			e.Step()
		}); a != 0 {
			t.Errorf("%s: AtCall allocates %.1f per pair", phase, a)
		}
	}
	warm()
	measure("cold engine")
	e.AfterCall(5, cb, &n) // leave an undrained slot for Reset to retire
	e.Reset(1)
	warm()
	measure("after Reset")
}

// sliceData returns the backing-array address of a slot's storage.
func sliceData(s []call) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(s))) }

// TestDrainedSlotArrayReusedLIFO: a drained slot's array goes onto the
// spare stack, and the next slot to receive its first event takes the
// most recently drained array.
func TestDrainedSlotArrayReusedLIFO(t *testing.T) {
	e := NewEngine(1)
	f := func() {}
	schedAt(e, 5, f)
	schedAt(e, 6, f)
	schedAt(e, 50, f)
	a5, a6 := sliceData(e.slots[5].recs), sliceData(e.slots[6].recs)
	if a5 == a6 {
		t.Fatal("two slots share one array")
	}
	e.Step() // drains slot 5
	e.Step() // drains slot 6, now on top of the spare stack
	if e.slots[5].recs != nil || e.slots[6].recs != nil {
		t.Fatal("drained slots still own storage")
	}
	if len(e.spare) != 2 {
		t.Fatalf("spare stack holds %d arrays, want 2", len(e.spare))
	}
	schedAt(e, 9, f) // first fill: takes slot 6's array
	schedAt(e, 7, f) // next first fill: takes slot 5's array
	if got := sliceData(e.slots[9].recs); got != a6 {
		t.Errorf("slot 9 did not reuse the most recently drained array")
	}
	if got := sliceData(e.slots[7].recs); got != a5 {
		t.Errorf("slot 7 did not reuse the earlier drained array")
	}
	if len(e.spare) != 0 {
		t.Fatalf("spare stack holds %d arrays after reuse, want 0", len(e.spare))
	}
}

// TestResetReleasesAllCallbacks: after a Reset that drops events in
// several slots (one of them half drained) and in the heap, no record
// anywhere in the engine's retained storage still references a callback
// or payload.
func TestResetReleasesAllCallbacks(t *testing.T) {
	e := NewEngine(1)
	n := 0
	f := func() { n++ }
	cb := func(arg any) { *arg.(*int)++ }
	for i := 0; i < 4; i++ {
		schedAt(e, 10, f) // partially drained below
		e.AtCall(11, cb, &n)
		schedAt(e, Time(20+i), f)
		e.AtCall(Time(10000+i), cb, &n) // heap tier
	}
	e.Step()
	if e.slots[10].head != 1 {
		t.Fatalf("slot 10 head = %d, want 1 (half drained)", e.slots[10].head)
	}
	e.Reset(1)
	for i := range e.slots {
		if e.slots[i].recs != nil || e.slots[i].head != 0 {
			t.Fatalf("slot %d not empty after Reset", i)
		}
	}
	if e.occ != [wheelWords]uint64{} {
		t.Fatal("occupancy bitmap not cleared by Reset")
	}
	if len(e.spare) == 0 {
		t.Fatal("Reset did not move slot storage to the spare stack")
	}
	for _, s := range e.spare {
		for _, c := range s[:cap(s)] {
			if c.cb != nil || c.arg != nil {
				t.Fatal("a spare slot array still references a callback or payload")
			}
		}
	}
	for _, ev := range e.heap[:cap(e.heap)] {
		if ev.cb != nil || ev.arg != nil {
			t.Fatal("the heap's storage still references a callback or payload")
		}
	}
}
