package proc

import (
	"testing"

	"bulksc/internal/cache"
	"bulksc/internal/chunk"
	"bulksc/internal/directory"
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sig"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
	"bulksc/internal/workload"
)

// fakeEnv wires a processor to a trivially-served memory system: every
// demand read returns Shared after a fixed latency; commits are granted
// immediately at the arbiter with a monotone order.
type fakeEnv struct {
	env      *Env
	eng      *sim.Engine
	st       *stats.Stats
	order    uint64
	denied   int // commit requests to deny before granting
	lat      sim.Time
	requests []mem.Line
}

// after schedules a plain func() d cycles from now through the engine's
// one callback form.
func after(eng *sim.Engine, d sim.Time, f func()) { eng.AfterCall(d, callFunc, f) }

func callFunc(arg any) { arg.(func())() }

func newFakeEnv() *fakeEnv {
	fe := &fakeEnv{eng: sim.NewEngine(1), st: stats.New(), lat: 13}
	net := network.New(fe.eng, fe.st)
	fe.env = &Env{
		Eng:    fe.eng,
		Net:    net,
		St:     fe.st,
		Mem:    mem.NewMemory(),
		Pages:  mem.NewPageTable(),
		Sigs:   sig.NewFactory(sig.KindExact),
		NProcs: 1,
	}
	fe.env.ReadLine = func(p int, l mem.Line, excl bool, done func(int)) {
		fe.requests = append(fe.requests, l)
		after(fe.eng, fe.lat, func() { done(int(cache.Shared)) })
	}
	fe.env.WritebackLine = func(p int, l mem.Line, drop bool) {}
	fe.env.Commit = func(req *CommitReq) {
		// Env.Commit consumes its argument synchronously (the processor
		// recycles the record as soon as the call returns), so copy out
		// what the deferred reply needs instead of retaining req.
		reply := req.Reply
		emptyW := req.W.Empty()
		after(fe.eng, 10, func() {
			if fe.denied > 0 {
				fe.denied--
				reply(false, 0)
				return
			}
			if emptyW {
				fe.st.EmptyWCommits++
			}
			fe.order++
			reply(true, fe.order)
		})
	}
	fe.env.PrivCommit = func(p int, w sig.Signature, trueW *lineset.Set, h chunk.Hold) {}
	fe.env.PreArbitrate = func(p int, granted func()) { after(fe.eng, 10, granted) }
	fe.env.EndPreArbitrate = func(p int) {}
	return fe
}

// onCommit is a test observer that hands each committed chunk to itself.
type onCommit func(ch *chunk.Chunk)

func (f onCommit) CommitChunk(ch *chunk.Chunk)                    { f(ch) }
func (onCommit) Access(int, uint64, bool, mem.Addr, uint64, bool) {}
func (onCommit) Squash(int, int, int, bool)                       {}
func (onCommit) PreArb(int)                                       {}

func buildStream(mk func(b *workload.Builder)) []workload.Instr {
	b := workload.NewBuilder(0, 1, 1)
	mk(b)
	return b.End()
}

func TestBulkProcRunsAndCommits(t *testing.T) {
	fe := newFakeEnv()
	ins := buildStream(func(b *workload.Builder) {
		for i := 0; i < 50; i++ {
			b.Load(mem.HeapAddr(uint64(i * 64)))
			b.Compute(30)
			b.Store(mem.HeapAddr(uint64(i * 64)))
		}
	})
	p := NewBulkProc(0, fe.env, DefaultParams(), DefaultOpts(), ins)
	var orders []uint64
	fe.env.Observers = []Observer{onCommit(func(ch *chunk.Chunk) { orders = append(orders, ch.CommitOrder) })}
	p.Start()
	fe.eng.Run(func() bool { return p.Finished() })
	if !p.Finished() {
		t.Fatal("processor did not finish")
	}
	if fe.st.Chunks < 1 {
		t.Fatal("no chunks committed")
	}
	if fe.st.CommittedInstrs < 1500 {
		t.Fatalf("committed %d instrs, want ≥1500", fe.st.CommittedInstrs)
	}
	for i := 1; i < len(orders); i++ {
		if orders[i] <= orders[i-1] {
			t.Fatal("per-processor commit order not monotone")
		}
	}
}

func TestBulkProcChunkBoundaries(t *testing.T) {
	fe := newFakeEnv()
	ins := buildStream(func(b *workload.Builder) {
		b.Compute(3500) // 3.5 chunks of pure compute
	})
	par := DefaultParams()
	par.ChunkSize = 1000
	p := NewBulkProc(0, fe.env, par, DefaultOpts(), ins)
	p.Start()
	fe.eng.Run(func() bool { return p.Finished() })
	if fe.st.Chunks != 4 {
		t.Fatalf("committed %d chunks for 3500 instrs, want 4", fe.st.Chunks)
	}
	if fe.st.EmptyWCommits != 4 {
		t.Fatalf("pure-compute chunks must have empty W (%d of %d)", fe.st.EmptyWCommits, fe.st.Chunks)
	}
}

func TestBulkProcDenyRetries(t *testing.T) {
	fe := newFakeEnv()
	fe.denied = 3
	ins := buildStream(func(b *workload.Builder) {
		b.Store(mem.HeapAddr(0))
		b.Compute(100)
	})
	p := NewBulkProc(0, fe.env, DefaultParams(), DefaultOpts(), ins)
	p.Start()
	fe.eng.Run(func() bool { return p.Finished() })
	if !p.Finished() {
		t.Fatal("did not finish after denials")
	}
	if fe.st.Chunks != 1 {
		t.Fatalf("chunks = %d, want 1", fe.st.Chunks)
	}
}

func TestBulkProcMSHRCoalescing(t *testing.T) {
	fe := newFakeEnv()
	a := mem.HeapAddr(0)
	ins := buildStream(func(b *workload.Builder) {
		// Four accesses to the same line back to back: one fetch.
		b.Load(a)
		b.Load(a + 8)
		b.Store(a + 16)
		b.Load(a + 24)
		b.Compute(50)
	})
	p := NewBulkProc(0, fe.env, DefaultParams(), DefaultOpts(), ins)
	p.Start()
	fe.eng.Run(func() bool { return p.Finished() })
	if len(fe.requests) != 1 {
		t.Fatalf("issued %d fetches for one line, want 1 (MSHR coalescing)", len(fe.requests))
	}
}

func TestBulkProcForwarding(t *testing.T) {
	fe := newFakeEnv()
	a := mem.HeapAddr(4096)
	ins := buildStream(func(b *workload.Builder) {
		b.Store(a)
		b.Compute(10)
		b.Load(a) // must observe own store
		b.Compute(50)
	})
	p := NewBulkProc(0, fe.env, DefaultParams(), DefaultOpts(), ins)
	var got *uint64
	p.Start()
	fe.eng.Run(func() bool { return p.Finished() })
	_ = got
	// Architectural check: memory holds the token and the (single) chunk
	// committed.
	if fe.env.Mem.Load(a) == 0 {
		t.Fatal("store never committed to memory")
	}
	if fe.st.Chunks != 1 {
		t.Fatalf("chunks = %d, want 1", fe.st.Chunks)
	}
}

func TestBulkProcStpvtRoutesStackWrites(t *testing.T) {
	fe := newFakeEnv()
	fe.env.Pages.MarkStacksPrivate(1)
	ins := buildStream(func(b *workload.Builder) {
		b.StackWork(200)
		b.Compute(100)
	})
	opts := DefaultOpts()
	opts.Stpvt = true
	p := NewBulkProc(0, fe.env, DefaultParams(), opts, ins)
	p.Start()
	fe.eng.Run(func() bool { return p.Finished() })
	if fe.st.SumWSetLines != 0 {
		t.Fatalf("stack writes leaked into W under stpvt: %d lines", fe.st.SumWSetLines)
	}
	if fe.st.SumPrivWSetLines == 0 {
		t.Fatal("no private writes recorded under stpvt")
	}
	if fe.st.SumRSetLines != 0 {
		t.Fatalf("stack reads polluted R under stpvt: %d lines", fe.st.SumRSetLines)
	}
}

// --- ConvProc ------------------------------------------------------------

func runConv(t *testing.T, model Model, ins []workload.Instr) (*fakeEnv, *ConvProc) {
	t.Helper()
	fe := newFakeEnv()
	p := NewConvProc(0, fe.env, DefaultParams(), model, ins)
	p.Start()
	fe.eng.Run(func() bool { return p.Finished() })
	if !p.Finished() {
		t.Fatalf("%v proc did not finish: %s", model, p.DebugState())
	}
	return fe, p
}

func TestConvProcAllModelsComplete(t *testing.T) {
	ins := buildStream(func(b *workload.Builder) {
		for i := 0; i < 30; i++ {
			b.Load(mem.HeapAddr(uint64(i * 256)))
			b.Compute(20)
			b.Store(mem.HeapAddr(uint64(i * 256)))
		}
	})
	for _, m := range []Model{SC, RC, SCpp} {
		fe, _ := runConv(t, m, ins)
		if fe.st.CommittedInstrs < 600 {
			t.Errorf("%v: committed %d instrs", m, fe.st.CommittedInstrs)
		}
	}
}

func TestSCSerializesMemoryOps(t *testing.T) {
	// Under SC each memory op costs at least the serialization latency;
	// under RC misses overlap. The same miss-heavy stream must therefore
	// take notably longer under SC.
	ins := buildStream(func(b *workload.Builder) {
		for i := 0; i < 200; i++ {
			b.Load(mem.HeapAddr(uint64(i * 64)))
			b.Compute(2)
		}
	})
	feSC, _ := runConv(t, SC, ins)
	feRC, _ := runConv(t, RC, ins)
	scT, rcT := feSC.eng.Now(), feRC.eng.Now()
	if scT <= rcT {
		t.Fatalf("SC (%d cycles) not slower than RC (%d cycles) on miss chain", scT, rcT)
	}
	if float64(scT) < 1.3*float64(rcT) {
		t.Errorf("SC/RC ratio %.2f implausibly small for a miss chain", float64(scT)/float64(rcT))
	}
}

func TestRCStoreBufferForwarding(t *testing.T) {
	a := mem.HeapAddr(8192)
	ins := buildStream(func(b *workload.Builder) {
		b.Store(a)
		b.Load(a) // must forward from the store buffer
		b.Compute(50)
	})
	fe, _ := runConv(t, RC, ins)
	if fe.env.Mem.Load(a) == 0 {
		t.Fatal("store never drained to memory")
	}
}

func TestRCStoreBufferBounded(t *testing.T) {
	// More stores than LSQ entries must still complete (dispatch stalls
	// until the buffer drains).
	ins := buildStream(func(b *workload.Builder) {
		for i := 0; i < 200; i++ {
			b.Store(mem.HeapAddr(uint64(i * 64)))
		}
		b.Compute(50)
	})
	fe, _ := runConv(t, RC, ins)
	if fe.st.CommittedInstrs < 200 {
		t.Fatal("stores lost")
	}
}

func TestSCppViolationDetection(t *testing.T) {
	fe := newFakeEnv()
	ins := buildStream(func(b *workload.Builder) {
		for i := 0; i < 40; i++ {
			b.Load(mem.HeapAddr(uint64(i * 64)))
			b.Compute(10)
		}
	})
	p := NewConvProc(0, fe.env, DefaultParams(), SCpp, ins)
	p.Start()
	// Deliver an invalidation for a speculatively-read line mid-run.
	after(fe.eng, 40, func() { p.ApplyInvalidate(mem.HeapAddr(0).LineOf()) })
	fe.eng.Run(func() bool { return p.Finished() })
	if fe.st.SHiQViolations != 1 {
		t.Fatalf("SHiQViolations = %d, want 1", fe.st.SHiQViolations)
	}
	if fe.st.SquashedInstrs == 0 {
		t.Fatal("violation charged no wasted work")
	}
}

func TestConvSnoopDirty(t *testing.T) {
	fe := newFakeEnv()
	ins := buildStream(func(b *workload.Builder) { b.Compute(10) })
	p := NewConvProc(0, fe.env, DefaultParams(), RC, ins)
	l := mem.HeapAddr(0).LineOf()
	if sup, holds := p.SnoopDirty(l); sup || holds {
		t.Fatal("snoop of absent line reported data")
	}
	p.l1.Insert(l, cache.Dirty)
	sup, holds := p.SnoopDirty(l)
	if !sup || !holds {
		t.Fatal("snoop of dirty line failed")
	}
	if w := p.l1.Probe(l); w == nil || w.State != cache.Shared {
		t.Fatal("snoop did not downgrade to Shared")
	}
}

func TestBarrierCountAndGenAddrs(t *testing.T) {
	in := workload.Instr{Kind: workload.OpBarrier, Addr: mem.SyncAddr(256), N: 4}
	if barrierCount(in) != mem.SyncAddr(257) {
		t.Fatal("barrier counter address wrong")
	}
	if barrierGen(in) != mem.SyncAddr(258) {
		t.Fatal("barrier generation address wrong")
	}
}

func TestFetcherCheckpointRestore(t *testing.T) {
	f := newFetcher(buildStream(func(b *workload.Builder) {
		b.Compute(10)
		b.Load(mem.HeapAddr(0))
	}))
	cp := f.checkpoint()
	f.pos = 1
	f.computeLeft = 3
	f.barriersDone = 2
	f.barPhase = 1
	f.restore(cp)
	if f.pos != 0 || f.computeLeft != 0 || f.barriersDone != 0 || f.barPhase != 0 {
		t.Fatal("restore did not rewind all interpreter state")
	}
}

func TestBulkProcIO(t *testing.T) {
	fe := newFakeEnv()
	ins := buildStream(func(b *workload.Builder) {
		b.Store(mem.HeapAddr(0))
		b.Compute(50)
		b.IO(500)
		b.Compute(50)
	})
	p := NewBulkProc(0, fe.env, DefaultParams(), DefaultOpts(), ins)
	var ioCommitSeen bool
	fe.env.Observers = []Observer{onCommit(func(ch *chunk.Chunk) {
		if ch.WSet.Len() == 0 && ch.RSet.Len() == 0 && ch.Executed == 1 {
			ioCommitSeen = true
		}
	})}
	p.Start()
	fe.eng.Run(func() bool { return p.Finished() })
	if !p.Finished() {
		t.Fatal("did not finish with an I/O op in the stream")
	}
	if !ioCommitSeen {
		t.Error("I/O did not commit as its own empty-signature chunk")
	}
	// The pre-I/O chunk must have committed before the device latency was
	// paid: total time ≥ 500 cycles.
	if fe.eng.Now() < 500 {
		t.Fatalf("finished at %d cycles; device latency not charged", fe.eng.Now())
	}
}

func TestConvProcIO(t *testing.T) {
	ins := buildStream(func(b *workload.Builder) {
		b.Store(mem.HeapAddr(0))
		b.IO(500)
		b.Compute(20)
	})
	for _, m := range []Model{SC, RC} {
		fe, _ := runConv(t, m, ins)
		if fe.eng.Now() < 500 {
			t.Errorf("%v: finished at %d cycles; device latency not charged", m, fe.eng.Now())
		}
	}
}

// holdProbe follows one chunk incarnation through retirement: it checks
// after each event of interest that the chunk has been recycled exactly
// when both its grant (or posthumous reply) and its last Hold release have
// happened, never earlier, and never twice.
type holdProbe struct {
	t        *testing.T
	ch       *chunk.Chunk
	gen      uint64
	pending  int // outstanding releases
	replied  func(c *chunk.Chunk) bool
	recycled bool
}

func (hp *holdProbe) check(when string) {
	hp.t.Helper()
	got := hp.ch.Gen != hp.gen
	if got && hp.ch.Gen != hp.gen+1 {
		hp.t.Fatalf("%s: Gen advanced by %d, want one recycling", when, hp.ch.Gen-hp.gen)
	}
	if !got && hp.recycled {
		hp.t.Fatalf("%s: recycled chunk reappeared", when)
	}
	want := hp.pending == 0 && (hp.recycled || hp.replied(hp.ch))
	if got != want {
		hp.t.Fatalf("%s: recycled=%v, want %v (pending releases %d, state %v)",
			when, got, want, hp.pending, hp.ch.State)
	}
	hp.recycled = got
}

// drainPool pops p's pool until it has to construct a chunk and reports
// how often c came back.
func drainPool(p *BulkProc, c *chunk.Chunk) (seen int, last *chunk.Chunk) {
	built := p.pool.Constructed()
	for p.pool.Constructed() == built {
		got := p.pool.Get(p.env.Sigs, &p.arena, p.id, 0, 0, 0, 100)
		if got == c {
			seen++
			last = got
		}
	}
	return seen, last
}

// TestCommittedChunkRecycledAfterLastHold: a granted chunk whose
// arbitration entry holds it k times returns to the pool exactly once,
// after the later of its grant arrival and its last Hold release, whatever
// the order of the two; and a release made against a recycled incarnation
// is ignored.
func TestCommittedChunkRecycledAfterLastHold(t *testing.T) {
	hop := newFakeEnv().env.Net.HopLat
	cases := []struct {
		name     string
		releases []sim.Time // release delays after the grant decision
	}{
		{"no holds", nil},
		{"all before arrival", []sim.Time{1, 2, 3}},
		{"all after arrival", []sim.Time{hop + 1, hop + 5, hop + 9}},
		{"straddling arrival", []sim.Time{1, hop + 4}},
		{"last on arrival cycle", []sim.Time{2, hop}},
		{"one late hold", []sim.Time{hop + 30}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fe := newFakeEnv()
			hp := &holdProbe{t: t, replied: func(c *chunk.Chunk) bool { return c.State == chunk.Committed }}
			var stale chunk.Hold
			fe.env.Commit = func(req *CommitReq) {
				reply, h := req.Reply, req.Hold
				after(fe.eng, 10, func() {
					stale = h
					for _, d := range tc.releases {
						h.Take()
						hp.pending++
						after(fe.eng, d, func() {
							h.Release()
							hp.pending--
							hp.check("release")
						})
					}
					fe.order++
					reply(true, fe.order)
					after(fe.eng, hop, func() { hp.check("grant arrival") })
				})
			}
			p := NewBulkProc(0, fe.env, DefaultParams(), DefaultOpts(), buildStream(func(b *workload.Builder) {
				b.Store(mem.HeapAddr(0))
				b.Compute(100)
			}))
			fe.env.Observers = []Observer{onCommit(func(c *chunk.Chunk) { hp.ch, hp.gen = c, c.Gen })}
			p.Start()
			fe.eng.Run(nil)
			if !p.Finished() || fe.st.Chunks != 1 {
				t.Fatalf("finished=%v chunks=%d, want one committed chunk", p.Finished(), fe.st.Chunks)
			}
			hp.check("end of run")
			if !hp.recycled {
				t.Fatal("committed chunk never recycled")
			}
			seen, c := drainPool(p, hp.ch)
			if seen != 1 {
				t.Fatalf("committed chunk came back from the pool %d times, want 1", seen)
			}
			// A release made against the retired incarnation must not touch
			// the new one.
			fresh := c.Hold()
			fresh.Take()
			stale.Release()
			stale.Take()
			if c.Holds != 1 || c.Gen != hp.gen+1 {
				t.Fatalf("stale hold reached the new incarnation: Holds=%d Gen=%d", c.Holds, c.Gen-hp.gen)
			}
			fresh.Release()
			if c.Holds != 0 {
				t.Fatalf("Holds=%d after the fresh release, want 0", c.Holds)
			}
		})
	}
}

// TestPosthumousGrantRecycledAfterLastHold: a chunk squashed while its
// commit request is in flight and then granted (stats.CommitCancels) is
// neither recycled while the arbitration entry still holds it nor leaked:
// it returns to the pool exactly once, at its last Hold release.
func TestPosthumousGrantRecycledAfterLastHold(t *testing.T) {
	fe := newFakeEnv()
	a := mem.HeapAddr(0)
	hp := &holdProbe{t: t, replied: func(c *chunk.Chunk) bool { return c.ReqsOut == 0 }}
	var p *BulkProc
	first := true
	fe.env.Commit = func(req *CommitReq) {
		reply, h := req.Reply, req.Hold
		if !first {
			after(fe.eng, 10, func() { fe.order++; reply(true, fe.order) })
			return
		}
		first = false
		hp.ch = p.chunks[0]
		hp.gen = hp.ch.Gen
		// A remote commit to the chunk's line squashes it in flight.
		after(fe.eng, 5, func() {
			w := fe.env.Sigs()
			w.Add(a.LineOf())
			p.ApplyCommit(&directory.Commit{Proc: 1, W: w, TrueW: lineset.NewSetOf(a.LineOf())})
			if hp.ch.State != chunk.Squashed {
				t.Fatalf("chunk not squashed by the remote commit: %v", hp.ch.State)
			}
		})
		after(fe.eng, 10, func() {
			for _, d := range []sim.Time{3, 40} {
				h.Take()
				hp.pending++
				after(fe.eng, d, func() {
					h.Release()
					hp.pending--
					hp.check("release")
				})
			}
			fe.order++
			reply(true, fe.order)
			hp.check("posthumous grant")
		})
	}
	p = NewBulkProc(0, fe.env, DefaultParams(), DefaultOpts(), buildStream(func(b *workload.Builder) {
		b.Store(a)
		b.Compute(100)
	}))
	p.Start()
	fe.eng.Run(nil)
	if !p.Finished() || fe.st.CommitCancels != 1 {
		t.Fatalf("finished=%v cancels=%d, want a finished run with one posthumous grant", p.Finished(), fe.st.CommitCancels)
	}
	hp.check("end of run")
	if seen, _ := drainPool(p, hp.ch); seen != 1 {
		t.Fatalf("posthumously granted chunk came back from the pool %d times, want 1", seen)
	}
}
