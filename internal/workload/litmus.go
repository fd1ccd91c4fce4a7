package workload

import "bulksc/internal/mem"

// Litmus programs: the classic consistency tests used to validate that
// BulkSC (and the SC baseline) only ever produce sequentially consistent
// outcomes, and that the RC baseline is genuinely weaker.
//
// Each program uses dedicated heap words. The tests read what each load
// observed from the machine's history export (internal/history/explore
// derives the outcome from the program and the export).

// LitmusX and LitmusY are the two shared words of the litmus tests.
var (
	litmusRegion = NewRegion(slotLitmus, 0, 4096)
	// LitmusX and LitmusY live on different cache lines.
	LitmusX = litmusRegion.Word(0)
	LitmusY = litmusRegion.Word(64)
)

// LitmusOut returns a private word of thread t, one cache line per
// (t, slot), so a store to it never interferes with the test.
func LitmusOut(t, slot int) mem.Addr {
	return litmusRegion.Word(1024 + (t*8+slot)*4)
}

// Litmus names one pad-parameterized litmus builder.
type Litmus struct {
	Name  string
	Build func(pad int) *Program
}

// LitmusSuite lists the litmus tests whose outcomes are flag vectors:
// plain loads and stores, each shared word stored once. It is the one
// kernel list; explore.FromProgram derives each one's enumerable form.
func LitmusSuite() []Litmus {
	return []Litmus{{"SB", StoreBuffering}, {"MP", MessagePassing}, {"LB", LoadBuffering},
		{"WRC", WRC}, {"CoRR", CoRR}, {"IRIW", IRIW}}
}

// StoreBuffering is the SB litmus test:
//
//	T0: x = 1; r0 = y        T1: y = 1; r1 = x
//
// Under SC, (r0, r1) = (0, 0) is forbidden. Under RC/TSO-like reordering
// it is observable. pad adds private work before the test to desynchronize
// the threads slightly.
func StoreBuffering(pad int) *Program {
	return Build("litmus-sb", 2, 1, func(b *Builder) {
		b.StackWork(pad * (b.Tid() + 1))
		if b.Tid() == 0 {
			b.Store(LitmusX)
			b.Load(LitmusY)
			b.Store(LitmusOut(0, 0)) // private token store: unread, kept so the program stays the same
		} else {
			b.Store(LitmusY)
			b.Load(LitmusX)
			b.Store(LitmusOut(1, 0))
		}
	})
}

// MessagePassing is the MP litmus test:
//
//	T0: x = 1; y = 1         T1: r0 = y; r1 = x
//
// Under SC, r0 = 1 ⇒ r1 = 1.
func MessagePassing(pad int) *Program {
	return Build("litmus-mp", 2, 1, func(b *Builder) {
		if b.Tid() == 0 {
			b.StackWork(pad)
			b.Store(LitmusX)
			b.Store(LitmusY)
		} else {
			b.StackWork(pad / 2)
			b.Load(LitmusY)
			b.Load(LitmusX)
		}
	})
}

// IRIW is the independent-reads-of-independent-writes test:
//
//	T0: x = 1    T1: y = 1    T2: r0 = x; r1 = y    T3: r2 = y; r3 = x
//
// Under SC the two readers may not observe the writes in opposite orders:
// (r0,r1,r2,r3) = (1,0,1,0) is forbidden.
func IRIW(pad int) *Program {
	return Build("litmus-iriw", 4, 1, func(b *Builder) {
		switch b.Tid() {
		case 0:
			b.StackWork(pad)
			b.Store(LitmusX)
		case 1:
			b.StackWork(pad + pad/2)
			b.Store(LitmusY)
		case 2:
			b.StackWork(pad / 2)
			b.Load(LitmusX)
			b.Load(LitmusY)
		default:
			b.StackWork(pad / 2)
			b.Load(LitmusY)
			b.Load(LitmusX)
		}
	})
}

// CoherenceOrder stresses write serialization on a single hot word: every
// thread alternately increments-by-store and reads it many times. The
// replay checker validates that all committed observations are consistent
// with a single order.
func CoherenceOrder(iters int) *Program {
	return Build("litmus-co", 4, 1, func(b *Builder) {
		for i := 0; i < iters; i++ {
			b.Load(LitmusX)
			b.Compute(3)
			b.Store(LitmusX)
			b.Compute(5)
		}
	})
}

// DekkerLock exercises mutual exclusion through chunked test-and-set: all
// threads repeatedly acquire one lock, read-modify-write a shared counter
// pair, and release. If atomicity or SC broke, the two counter words would
// diverge; the consistency test checks committed values.
func DekkerLock(iters, nthreads int) *Program {
	return Build("litmus-lock", nthreads, 1, func(b *Builder) {
		c0 := litmusRegion.Word(128)
		c1 := litmusRegion.Word(192)
		for i := 0; i < iters; i++ {
			b.Acquire(slotLitmus*8 + 1)
			b.Load(c0)
			b.Compute(2)
			b.Store(c0)
			b.Load(c1)
			b.Compute(2)
			b.Store(c1)
			b.Release(slotLitmus*8 + 1)
			b.StackWork(12)
		}
	})
}

// LoadBuffering is the LB litmus test:
//
//	T0: r0 = x; y = 1         T1: r1 = y; x = 1
//
// Under SC (and any machine preserving load→store order) r0 = r1 = 1 is
// forbidden.
func LoadBuffering(pad int) *Program {
	return Build("litmus-lb", 2, 1, func(b *Builder) {
		b.StackWork(pad * (b.Tid() + 1))
		if b.Tid() == 0 {
			b.Load(LitmusX)
			b.Store(LitmusY)
		} else {
			b.Load(LitmusY)
			b.Store(LitmusX)
		}
	})
}

// WRC is the write-to-read-causality test:
//
//	T0: x = 1    T1: r0 = x; y = 1    T2: r1 = y; r2 = x
//
// Under SC, r0 = 1 ∧ r1 = 1 ⇒ r2 = 1 (causality is transitive).
func WRC(pad int) *Program {
	return Build("litmus-wrc", 3, 1, func(b *Builder) {
		switch b.Tid() {
		case 0:
			b.StackWork(pad)
			b.Store(LitmusX)
		case 1:
			b.StackWork(pad / 2)
			b.Load(LitmusX)
			b.Store(LitmusY)
		default:
			b.StackWork(pad / 3)
			b.Load(LitmusY)
			b.Load(LitmusX)
		}
	})
}

// CoRR is the coherence read-read test: a reader loading the same location
// twice must not see a newer value then an older one.
func CoRR(pad int) *Program {
	return Build("litmus-corr", 2, 1, func(b *Builder) {
		if b.Tid() == 0 {
			b.StackWork(pad)
			b.Store(LitmusX)
		} else {
			b.Load(LitmusX)
			b.Compute(4)
			b.Load(LitmusX)
		}
	})
}

// PadThreads widens prog to nthreads threads for big-machine litmus runs:
// the original threads are kept verbatim and every added thread runs only
// private stack work, so the padding adds timing noise, arbitration load
// and directory pressure without touching the litmus variables or the
// synchronization structure. work bounds each filler thread's dynamic
// instruction count.
func PadThreads(prog *Program, nthreads, work int, seed int64) *Program {
	if nthreads <= len(prog.Threads) {
		return prog
	}
	out := &Program{Name: prog.Name, Threads: make([][]Instr, 0, nthreads)}
	out.Threads = append(out.Threads, prog.Threads...)
	for tid := len(prog.Threads); tid < nthreads; tid++ {
		b := NewBuilder(tid, nthreads, seed)
		for b.Len() < work {
			b.StackWork(8)
			b.Compute(4)
		}
		out.Threads = append(out.Threads, b.End())
	}
	return out
}
