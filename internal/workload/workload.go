// Package workload generates the multithreaded programs the simulator
// runs: a framework of deterministic per-thread instruction streams plus
// generators that recreate the sharing patterns of the paper's evaluation
// suite — the eleven SPLASH-2 applications (all but volrend, as in the
// paper) and proxies for SPECjbb2000 and SPECweb2005 — and the litmus
// programs used by the consistency tests.
//
// Real SPLASH-2 binaries cannot run here (the paper used the SESC MIPS
// simulator); instead each generator is a synthetic kernel with the same
// structure: the same read/write mix, shared-vs-private footprint, data
// layout (per-thread partitions, read-mostly structures, hot shared
// lines), and synchronization (locks, distributed barriers, task queues).
// Every statistic the paper reports is a function of those properties.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"bulksc/internal/mem"
)

// OpKind is an instruction class.
type OpKind uint8

const (
	// OpLoad reads one word.
	OpLoad OpKind = iota
	// OpStore writes one word.
	OpStore
	// OpCompute models N non-memory instructions.
	OpCompute
	// OpAcquire spins until it atomically acquires the lock word at Addr.
	OpAcquire
	// OpRelease releases the lock word at Addr.
	OpRelease
	// OpBarrier joins a centralized sense-reversing barrier: Addr is the
	// barrier's lock word; the arrival counter and the generation flag
	// live on the two following sync lines. N is the participant count.
	// Arrivals increment the counter under the lock; waiters spin on the
	// generation flag only, so an arrival never disturbs the spinners'
	// read sets (the structure of the ANL barrier macros the SPLASH-2
	// codes use).
	OpBarrier
	// OpIO is an uncached I/O operation (paper §4.1.3): it cannot be
	// executed speculatively, so a BulkSC processor stalls until every
	// in-flight chunk has committed, performs the operation, and starts a
	// fresh chunk. N is the device latency in cycles.
	OpIO
	// OpEnd terminates the thread.
	OpEnd
)

func (k OpKind) String() string {
	return [...]string{"load", "store", "compute", "acquire", "release", "barrier", "io", "end"}[k]
}

// Instr is one static instruction. The fields are ordered widest first so
// the record packs into 16 bytes instead of 24: a 256-proc program holds
// millions of them.
type Instr struct {
	Addr mem.Addr
	N    uint32
	Kind OpKind
}

// Program is a complete multithreaded workload.
type Program struct {
	Name    string
	Threads [][]Instr
}

// Generator builds a program for nthreads threads with roughly work
// dynamic instructions per thread, deterministically from seed.
type Generator func(nthreads, work int, seed int64) *Program

var registry = map[string]Generator{}

// Register adds a named generator. Panics on duplicates (catches copy-paste
// mistakes in app definitions).
func Register(name string, g Generator) {
	if _, dup := registry[name]; dup {
		panic("workload: duplicate generator " + name)
	}
	registry[name] = g
}

// Get returns the named generator.
func Get(name string) (Generator, error) {
	g, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown application %q", name)
	}
	return g, nil
}

// Names returns all registered generator names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Splash2 lists the SPLASH-2 kernels in the paper's presentation order.
func Splash2() []string {
	return []string{"barnes", "cholesky", "fft", "fmm", "lu", "ocean",
		"radiosity", "radix", "raytrace", "water-ns", "water-sp"}
}

// Commercial lists the commercial workload proxies.
func Commercial() []string { return []string{"sjbb2k", "sweb2005"} }

// All lists every application evaluated in the paper: SPLASH-2 followed by
// the commercial codes.
func All() []string { return append(Splash2(), Commercial()...) }

// ---------------------------------------------------------------------------
// Builder: the per-thread stream construction helper shared by generators.
// ---------------------------------------------------------------------------

// BarrierFlagBase is the first SyncAddr slot used for barrier state
// (slots below it are locks). Slot +0 is the barrier lock, +1 the arrival
// counter, +2 the generation flag — each on its own line.
const BarrierFlagBase = 256

// Builder accumulates one thread's instruction stream.
type Builder struct {
	tid, nthreads int
	rng           *rand.Rand
	structRng     *rand.Rand
	ins           []Instr
	// dyn is the dynamic instruction count of ins: compute blocks count
	// as their expansion.
	dyn      int
	stackOff uint64
}

// NewBuilder returns a builder for thread tid of nthreads, seeded
// deterministically. Both sources are explicitly seeded rand.New
// constructions — the sanctioned pattern under the simlint determinism
// pass; the per-thread source mixes tid into the seed so threads draw
// independent streams, while structRng is seeded identically for all
// threads (see StructRng).
func NewBuilder(tid, nthreads int, seed int64) *Builder {
	return &Builder{
		tid:       tid,
		nthreads:  nthreads,
		rng:       rand.New(rand.NewSource(seed ^ int64(tid)*0x9E3779B9)),
		structRng: rand.New(rand.NewSource(seed*31 + 7)),
	}
}

// Rng exposes the builder's per-thread random source.
func (b *Builder) Rng() *rand.Rand { return b.rng }

// StructRng is a random source seeded identically for every thread of a
// program. Generators must use it (and only it) for decisions that affect
// synchronization structure — e.g. "emit a barrier this iteration?" — so
// all threads agree; with BuildIter's lockstep iteration counts this keeps
// barrier counts balanced and programs deadlock-free.
func (b *Builder) StructRng() *rand.Rand { return b.structRng }

// Tid returns the thread id.
func (b *Builder) Tid() int { return b.tid }

// NThreads returns the thread count.
func (b *Builder) NThreads() int { return b.nthreads }

// Len returns the number of instructions emitted so far (compute blocks
// count as their expansion).
func (b *Builder) Len() int { return b.dyn }

// emit appends one single-instruction op.
func (b *Builder) emit(in Instr) {
	b.ins = append(b.ins, in)
	b.dyn++
}

// Load emits a load of a.
func (b *Builder) Load(a mem.Addr) { b.emit(Instr{Kind: OpLoad, Addr: a}) }

// Store emits a store to a.
func (b *Builder) Store(a mem.Addr) { b.emit(Instr{Kind: OpStore, Addr: a}) }

// Compute emits n non-memory instructions.
func (b *Builder) Compute(n int) {
	if n <= 0 {
		return
	}
	b.dyn += n
	if last := len(b.ins) - 1; last >= 0 && b.ins[last].Kind == OpCompute {
		b.ins[last].N += uint32(n)
		return
	}
	b.ins = append(b.ins, Instr{Kind: OpCompute, N: uint32(n)})
}

// Acquire emits an acquire of lock id.
func (b *Builder) Acquire(lock int) {
	b.emit(Instr{Kind: OpAcquire, Addr: mem.SyncAddr(lock)})
}

// Release emits a release of lock id.
func (b *Builder) Release(lock int) {
	b.emit(Instr{Kind: OpRelease, Addr: mem.SyncAddr(lock)})
}

// IO emits an uncached I/O operation with the given device latency.
func (b *Builder) IO(latency int) {
	b.emit(Instr{Kind: OpIO, N: uint32(latency)})
}

// Barrier emits a global barrier over all threads.
func (b *Builder) Barrier() {
	b.emit(Instr{
		Kind: OpBarrier,
		Addr: mem.SyncAddr(BarrierFlagBase),
		N:    uint32(b.nthreads),
	})
}

// StackWork emits n instructions of private computation touching the
// thread's stack with high locality: the register-spill and local-variable
// traffic that the paper's stpvt optimization classifies as private. Every
// fourth instruction is a stack access walking cyclically over an 8 KB
// window. The cycle period (~4k instructions) exceeds the two-chunk
// in-flight window, so each line's rewrite finds it dirty
// non-speculative — the dynamically-private pattern.
func (b *Builder) StackWork(n int) {
	for n > 0 {
		step := 4
		if step > n {
			step = n
		}
		b.Compute(step - 1)
		a := mem.StackAddr(b.tid, b.stackOff)
		if b.rng.Intn(3) != 0 {
			b.Load(a)
		} else {
			b.Store(a)
		}
		b.stackOff = (b.stackOff + 8) % 8192
		n -= step
	}
}

// End terminates the stream.
func (b *Builder) End() []Instr {
	b.emit(Instr{Kind: OpEnd})
	return b.ins
}

// Build assembles a Program by running mk for every thread. Only suitable
// for programs whose synchronization needs no cross-thread agreement
// (lock-only kernels and litmus tests); barrier kernels use BuildIter.
func Build(name string, nthreads int, seed int64, mk func(b *Builder)) *Program {
	p := &Program{Name: name, Threads: make([][]Instr, nthreads)}
	for t := 0; t < nthreads; t++ {
		b := NewBuilder(t, nthreads, seed)
		mk(b)
		p.Threads[t] = b.End()
	}
	return p
}

// BuildIter assembles a Program whose threads all execute the same number
// of iterations of body: thread 0 runs until it has emitted at least work
// dynamic instructions, fixing the iteration count; the other threads run
// exactly that many iterations. Combined with StructRng this guarantees
// every thread reaches every barrier.
func BuildIter(name string, nthreads, work int, seed int64, body func(b *Builder, iter int)) *Program {
	p := &Program{Name: name, Threads: make([][]Instr, nthreads)}
	b0 := NewBuilder(0, nthreads, seed)
	iters := 0
	for b0.Len() < work {
		body(b0, iters)
		iters++
	}
	p.Threads[0] = b0.End()
	// The other threads run the same iterations, so their streams come
	// within a few percent of thread 0's: reserve that much once, with an
	// eighth to spare, instead of regrowing from nil.
	reserve := len(p.Threads[0]) + len(p.Threads[0])/8
	for t := 1; t < nthreads; t++ {
		b := NewBuilder(t, nthreads, seed)
		b.ins = make([]Instr, 0, reserve)
		for i := 0; i < iters; i++ {
			body(b, i)
		}
		p.Threads[t] = b.End()
	}
	return p
}

// Region is a contiguous heap area with a fixed base, used by generators to
// lay out their data structures without overlap.
type Region struct {
	Base  mem.Addr
	Words int
}

// NewRegion carves a region of the given number of words at a
// structure-specific base. id must be unique per structure within an app;
// apps are separated by their own base offsets. Bases carry a
// structure-specific scatter so that different structures do not land at
// identical offsets within the signature's address window (real allocators
// scatter structures the same way).
func NewRegion(appSlot, id, words int) Region {
	const appStride = 32 << 20 // 32 MB per app slot
	const structStride = 4 << 20
	scatter := (uint64(appSlot*131 + id*8191 + 7)) * 0x9E3779B9 % (1 << 20)
	scatter &^= mem.LineBytes - 1
	base := mem.HeapBase + mem.Addr(appSlot*appStride+id*structStride) + mem.Addr(scatter)
	return Region{Base: base, Words: words}
}

// Word returns the address of word i (wrapped).
func (r Region) Word(i int) mem.Addr {
	i %= r.Words
	if i < 0 {
		i += r.Words
	}
	return r.Base + mem.Addr(i*mem.WordBytes)
}

// Lines returns the region's size in cache lines.
func (r Region) Lines() int { return (r.Words*mem.WordBytes + mem.LineBytes - 1) / mem.LineBytes }
