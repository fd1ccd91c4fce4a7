package workload

import (
	"testing"
	"unsafe"

	"bulksc/internal/mem"
)

func TestRegistryComplete(t *testing.T) {
	if len(Splash2()) != 11 {
		t.Fatalf("Splash2 lists %d apps, want 11", len(Splash2()))
	}
	if len(All()) != 13 {
		t.Fatalf("All lists %d apps, want 13", len(All()))
	}
	for _, name := range All() {
		if _, err := Get(name); err != nil {
			t.Errorf("Get(%q): %v", name, err)
		}
	}
	if _, err := Get("nonesuch"); err == nil {
		t.Error("Get of unknown app succeeded")
	}
}

func TestGeneratorsProduceWork(t *testing.T) {
	for _, name := range All() {
		g, _ := Get(name)
		p := g(4, 5000, 42)
		if p.Name != name {
			t.Errorf("%s: program named %q", name, p.Name)
		}
		if len(p.Threads) != 4 {
			t.Errorf("%s: %d threads, want 4", name, len(p.Threads))
			continue
		}
		for tid, ins := range p.Threads {
			// Thread 0 sets the iteration count and meets the budget
			// exactly; other threads may come in slightly shorter.
			n := dynLen(ins)
			if n < 4000 {
				t.Errorf("%s thread %d: only %d dynamic instructions, want ≥4000", name, tid, n)
			}
			if ins[len(ins)-1].Kind != OpEnd {
				t.Errorf("%s thread %d: stream does not end with OpEnd", name, tid)
			}
		}
	}
}

func dynLen(ins []Instr) int {
	n := 0
	for _, in := range ins {
		if in.Kind == OpCompute {
			n += int(in.N)
		} else {
			n++
		}
	}
	return n
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range []string{"fft", "radix", "sjbb2k"} {
		g, _ := Get(name)
		a, b := g(4, 3000, 7), g(4, 3000, 7)
		for tid := range a.Threads {
			if len(a.Threads[tid]) != len(b.Threads[tid]) {
				t.Fatalf("%s: nondeterministic stream length", name)
			}
			for i := range a.Threads[tid] {
				if a.Threads[tid][i] != b.Threads[tid][i] {
					t.Fatalf("%s: nondeterministic instr %d of thread %d", name, i, tid)
				}
			}
		}
		c := g(4, 3000, 8)
		same := true
		for tid := range a.Threads {
			if len(a.Threads[tid]) != len(c.Threads[tid]) {
				same = false
				break
			}
		}
		if same {
			diff := false
			for i, in := range a.Threads[0] {
				if c.Threads[0][i] != in {
					diff = true
					break
				}
			}
			if !diff {
				t.Errorf("%s: seed has no effect", name)
			}
		}
	}
}

func TestBalancedSync(t *testing.T) {
	for _, name := range All() {
		g, _ := Get(name)
		p := g(4, 8000, 1)
		barriers := make([]int, 4)
		for tid, ins := range p.Threads {
			depth := 0
			for _, in := range ins {
				switch in.Kind {
				case OpAcquire:
					depth++
				case OpRelease:
					depth--
					if depth < 0 {
						t.Fatalf("%s thread %d: release without acquire", name, tid)
					}
				case OpBarrier:
					barriers[tid]++
					if in.N != 4 {
						t.Fatalf("%s: barrier with N=%d, want 4", name, in.N)
					}
				}
			}
			if depth != 0 {
				t.Errorf("%s thread %d: %d unreleased locks", name, tid, depth)
			}
		}
		for tid := 1; tid < 4; tid++ {
			if barriers[tid] != barriers[0] {
				t.Errorf("%s: thread %d reaches %d barriers, thread 0 reaches %d — deadlock",
					name, tid, barriers[tid], barriers[0])
			}
		}
	}
}

func TestAddressesWellFormed(t *testing.T) {
	for _, name := range All() {
		g, _ := Get(name)
		p := g(4, 4000, 3)
		for tid, ins := range p.Threads {
			for _, in := range ins {
				switch in.Kind {
				case OpLoad, OpStore:
					if in.Addr != in.Addr.Align() {
						t.Fatalf("%s: unaligned access %#x", name, uint64(in.Addr))
					}
					if mem.IsSync(in.Addr) {
						t.Fatalf("%s: plain access to sync region %#x", name, uint64(in.Addr))
					}
					if mem.IsStack(in.Addr) {
						// Stack accesses must target the thread's own stack.
						own := in.Addr >= mem.StackAddr(tid, 0) &&
							in.Addr < mem.StackAddr(tid, 0)+mem.StackSize
						if !own {
							t.Fatalf("%s thread %d: foreign stack access %#x", name, tid, uint64(in.Addr))
						}
					}
				case OpAcquire, OpRelease:
					if !mem.IsSync(in.Addr) {
						t.Fatalf("%s: lock outside sync region", name)
					}
				case OpBarrier:
					want := mem.SyncAddr(BarrierFlagBase)
					if in.Addr != want {
						t.Fatalf("%s: barrier lock %#x, want %#x", name, uint64(in.Addr), uint64(want))
					}
				}
			}
		}
	}
}

func TestMemoryOpMix(t *testing.T) {
	// Chunk-level statistics depend on a plausible memory-instruction
	// fraction; check it stays within a broad realistic band.
	for _, name := range All() {
		g, _ := Get(name)
		p := g(8, 20000, 5)
		memOps, total := 0, 0
		for _, ins := range p.Threads {
			for _, in := range ins {
				switch in.Kind {
				case OpLoad, OpStore:
					memOps++
					total++
				case OpCompute:
					total += int(in.N)
				case OpAcquire, OpRelease:
					memOps += 2
					total += 2
				}
			}
		}
		frac := float64(memOps) / float64(total)
		if frac < 0.10 || frac > 0.60 {
			t.Errorf("%s: memory fraction %.2f outside [0.10, 0.60]", name, frac)
		}
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	type span struct {
		name string
		lo   mem.Addr
		hi   mem.Addr
	}
	var spans []span
	for slot := 0; slot < 14; slot++ {
		for id := 0; id < 3; id++ {
			r := NewRegion(slot, id, 1<<15)
			spans = append(spans, span{
				name: "region",
				lo:   r.Base,
				hi:   r.Base + mem.Addr(r.Words*mem.WordBytes),
			})
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestLitmusShapes(t *testing.T) {
	sb := StoreBuffering(16)
	if len(sb.Threads) != 2 {
		t.Fatal("SB must have 2 threads")
	}
	mp := MessagePassing(16)
	if len(mp.Threads) != 2 {
		t.Fatal("MP must have 2 threads")
	}
	iriw := IRIW(16)
	if len(iriw.Threads) != 4 {
		t.Fatal("IRIW must have 4 threads")
	}
	if LitmusX.LineOf() == LitmusY.LineOf() {
		t.Fatal("litmus variables share a cache line")
	}
	lock := DekkerLock(10, 4)
	acq := 0
	for _, in := range lock.Threads[0] {
		if in.Kind == OpAcquire {
			acq++
		}
	}
	if acq != 10 {
		t.Fatalf("DekkerLock thread has %d acquires, want 10", acq)
	}
}

func TestBuilderComputeCoalesces(t *testing.T) {
	b := NewBuilder(0, 1, 1)
	b.Compute(5)
	b.Compute(7)
	ins := b.End()
	if len(ins) != 2 || ins[0].N != 12 {
		t.Fatalf("compute blocks not coalesced: %+v", ins)
	}
	b2 := NewBuilder(0, 1, 1)
	b2.Compute(0)
	b2.Compute(-3)
	if len(b2.End()) != 1 {
		t.Fatal("non-positive compute emitted instructions")
	}
}

// TestBuilderLenCountsDynamic: the running count Len keeps equals a
// recount of the emitted stream, compute blocks by their expansion, after
// every kind of emit.
func TestBuilderLenCountsDynamic(t *testing.T) {
	b := NewBuilder(0, 4, 1)
	recount := func() int {
		n := 0
		for _, in := range b.ins {
			if in.Kind == OpCompute {
				n += int(in.N)
			} else {
				n++
			}
		}
		return n
	}
	emits := []func(){
		func() { b.Load(mem.HeapAddr(8)) },
		func() { b.Store(mem.HeapAddr(16)) },
		func() { b.Compute(3) },
		func() { b.Compute(0) },
		func() { b.Acquire(1) },
		func() { b.Release(1) },
		func() { b.IO(20) },
		func() { b.Barrier() },
		func() { b.StackWork(9) },
	}
	for i := 0; i < 200; i++ {
		emits[(i*7)%len(emits)]()
		if got, want := b.Len(), recount(); got != want {
			t.Fatalf("emit %d: Len() = %d, recount %d", i, got, want)
		}
	}
	b.End()
	if got, want := b.Len(), recount(); got != want {
		t.Fatalf("after End: Len() = %d, recount %d", got, want)
	}
}

func TestOpKindStrings(t *testing.T) {
	if OpLoad.String() != "load" || OpBarrier.String() != "barrier" || OpEnd.String() != "end" {
		t.Fatal("OpKind strings wrong")
	}
}

// TestInstrIs16Bytes pins the packed instruction layout.
func TestInstrIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 16 {
		t.Fatalf("sizeof(Instr) = %d, want 16", got)
	}
}
