package proc

import (
	"math/rand"
	"slices"
	"testing"

	"bulksc/internal/cache"
	"bulksc/internal/mem"
	"bulksc/internal/workload"
)

// The prefetch-coverage memo lets prefetchAhead count ops it found covered
// without probing them again. Each test below covers one op, lets the
// memo record it, then fires one of the events that can uncover it and
// requires the next scan to probe the op again and prefetch it.

// fillRig drives a ConvProc's prefetcher by hand: the processor is never
// started, and every line request waits in pending until the test
// completes it with the state of its choice.
type fillRig struct {
	t       *testing.T
	p       *ConvProc
	pending map[mem.Line]func(int)
	issued  []fillReq
	// syncShared, when set, completes every request Shared inside
	// ReadLine, before the requesting scan moves on.
	syncShared bool
}

type fillReq struct {
	l    mem.Line
	excl bool
}

func newFillRig(t *testing.T, ins []workload.Instr) *fillRig {
	r := &fillRig{t: t, pending: make(map[mem.Line]func(int))}
	fe := newFakeEnv()
	fe.env.ReadLine = func(p int, l mem.Line, excl bool, done func(int)) {
		r.issued = append(r.issued, fillReq{l, excl})
		if r.syncShared {
			done(int(cache.Shared))
			return
		}
		r.pending[l] = done
	}
	r.p = NewConvProc(0, fe.env, DefaultParams(), SC, ins)
	return r
}

// complete delivers the fill of l in state st.
func (r *fillRig) complete(l mem.Line, st cache.LineState) {
	r.t.Helper()
	done, ok := r.pending[l]
	if !ok {
		r.t.Fatalf("no request pending for %v", l)
	}
	delete(r.pending, l)
	done(int(st))
}

// scan runs prefetchAhead(k) and returns the requests it issued.
func (r *fillRig) scan(k int) []fillReq {
	n := len(r.issued)
	r.p.prefetchAhead(k)
	return append([]fillReq(nil), r.issued[n:]...)
}

// settle scans, completes every prefetch it issued in state st, and
// scans again: the second scan must find everything covered, and leaves
// the memo recording that.
func (r *fillRig) settle(k int, st cache.LineState) {
	r.t.Helper()
	for _, q := range r.scan(k) {
		r.complete(q.l, st)
	}
	if got := r.scan(k); len(got) != 0 {
		r.t.Fatalf("settled scan issued %v", got)
	}
	if r.p.cov.at != r.p.cov.gen || r.p.cov.to <= r.p.cov.from {
		r.t.Fatalf("settled scan left no memo: %+v", r.p.cov)
	}
}

func wantIssued(t *testing.T, got []fillReq, want ...fillReq) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("issued %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("issued %v, want %v", got, want)
		}
	}
}

// TestPrefetchMemoFillEviction: loads fill one L1 set; a further line of
// the same set, fetched on demand, evicts the least recently used of them.
func TestPrefetchMemoFillEviction(t *testing.T) {
	l1 := NewConvProc(0, newFakeEnv().env, DefaultParams(), SC, nil).l1
	lines := make([]mem.Line, l1.Assoc()+1)
	for i := range lines {
		lines[i] = mem.HeapAddr(0).LineOf() + mem.Line(i*l1.Sets())
	}
	r := newFillRig(t, buildStream(func(b *workload.Builder) {
		for _, l := range lines[:len(lines)-1] {
			b.Load(l.Addr())
			b.Compute(3)
		}
	}))
	k := len(lines) - 1
	r.settle(k, cache.Shared)
	r.p.fetch(lines[k], false, nil)
	r.complete(lines[k], cache.Shared)
	if r.p.l1.Probe(lines[0]) != nil {
		t.Fatal("the demand fill did not evict the oldest line")
	}
	wantIssued(t, r.scan(k), fillReq{lines[0], false})
}

// TestPrefetchMemoFillDuringScan: a fill that completes inside the scan's
// own request evicts an op the scan had already found covered. The memo
// the scan leaves must not vouch for that op.
func TestPrefetchMemoFillDuringScan(t *testing.T) {
	l1 := NewConvProc(0, newFakeEnv().env, DefaultParams(), SC, nil).l1
	lines := make([]mem.Line, l1.Assoc()+1)
	for i := range lines {
		lines[i] = mem.HeapAddr(0).LineOf() + mem.Line(i*l1.Sets())
	}
	last := lines[len(lines)-1]
	r := newFillRig(t, buildStream(func(b *workload.Builder) {
		b.Load(lines[0].Addr())
		b.Load(last.Addr())
	}))
	for _, l := range lines[:len(lines)-1] {
		r.p.l1.Insert(l, cache.Shared) // lines[0] is the least recent
	}
	r.syncShared = true
	wantIssued(t, r.scan(2), fillReq{last, false})
	r.syncShared = false
	if r.p.l1.Probe(lines[0]) != nil {
		t.Fatal("the fill did not evict the oldest line")
	}
	wantIssued(t, r.scan(2), fillReq{lines[0], false})
}

func TestPrefetchMemoInvalidate(t *testing.T) {
	a, b := mem.HeapAddr(0), mem.HeapAddr(64)
	r := newFillRig(t, buildStream(func(bb *workload.Builder) {
		bb.Load(a)
		bb.Compute(5)
		bb.Load(b)
	}))
	r.settle(2, cache.Shared)
	r.p.ApplyInvalidate(b.LineOf())
	wantIssued(t, r.scan(2), fillReq{b.LineOf(), false})
}

func TestPrefetchMemoSnoopDowngrade(t *testing.T) {
	a, b := mem.HeapAddr(0), mem.HeapAddr(64)
	r := newFillRig(t, buildStream(func(bb *workload.Builder) {
		bb.Load(a)
		bb.Store(b)
	}))
	r.settle(2, cache.Dirty)
	if sup, _ := r.p.SnoopDirty(b.LineOf()); !sup {
		t.Fatal("snoop found no dirty line to downgrade")
	}
	wantIssued(t, r.scan(2), fillReq{b.LineOf(), true})
}

func TestPrefetchMemoWarmReset(t *testing.T) {
	a, b := mem.HeapAddr(0), mem.HeapAddr(64)
	ins := buildStream(func(bb *workload.Builder) {
		bb.Load(a)
		bb.Store(b)
	})
	r := newFillRig(t, ins)
	r.settle(2, cache.Dirty)
	// The same program on the reset processor starts from a cold L1: both
	// ops must be prefetched again.
	r.p.Reset(ins, DefaultParams(), SC)
	wantIssued(t, r.scan(2), fillReq{a.LineOf(), false}, fillReq{b.LineOf(), true})
}

// TestPrefetchMemoSharedFillUnderStore: a store whose line has a shared
// fetch in flight counts as covered. When that fetch completes Shared the
// store is no longer covered, so the next scan must probe it and prefetch
// the line exclusive.
func TestPrefetchMemoSharedFillUnderStore(t *testing.T) {
	a := mem.HeapAddr(0)
	r := newFillRig(t, buildStream(func(bb *workload.Builder) {
		bb.Load(a)
		bb.Store(a)
	}))
	wantIssued(t, r.scan(2), fillReq{a.LineOf(), false})
	if got := r.scan(2); len(got) != 0 {
		t.Fatalf("in-flight fetch did not cover the store: issued %v", got)
	}
	r.complete(a.LineOf(), cache.Shared)
	wantIssued(t, r.scan(2), fillReq{a.LineOf(), true})
}

// TestPrefetchMemoReusedAcrossSteps: a scan that starts inside the memo at
// the same generation probes only past the memo's end, and reaches as far
// as a full scan would.
func TestPrefetchMemoReusedAcrossSteps(t *testing.T) {
	addrs := []mem.Addr{mem.HeapAddr(0), mem.HeapAddr(64), mem.HeapAddr(128), mem.HeapAddr(192)}
	r := newFillRig(t, buildStream(func(bb *workload.Builder) {
		for _, a := range addrs {
			bb.Load(a)
			bb.Compute(2)
		}
	}))
	wantIssued(t, r.scan(2), fillReq{addrs[0].LineOf(), false}, fillReq{addrs[1].LineOf(), false})
	from, to := r.p.cov.from, r.p.cov.to
	r.p.f.pos += 2 // past the first load and its compute
	wantIssued(t, r.scan(2), fillReq{addrs[2].LineOf(), false})
	if r.p.cov.from != from+2 || r.p.cov.to <= to {
		t.Fatalf("memo %+v after the second scan, want it to start at %d and pass %d", r.p.cov, from+2, to)
	}
}

// walkPrefetchAhead is the reference scan prefetchAhead must match: it
// visits every op from the fetch position, counts the ones the memo
// vouches for one at a time without probing them, and probes the rest.
func (p *ConvProc) walkPrefetchAhead(k int) {
	pos := p.f.pos
	start, gen := pos, p.cov.gen
	covered := pos
	if p.cov.at == gen && p.cov.from <= pos && pos < p.cov.to {
		covered = p.cov.to
	}
	for n := 0; n < k && pos < len(p.f.ins); pos++ {
		in := p.f.ins[pos]
		var l mem.Line
		var excl bool
		switch in.Kind {
		case workload.OpLoad:
			l, excl = in.Addr.LineOf(), false
		case workload.OpStore, workload.OpAcquire, workload.OpRelease:
			l, excl = in.Addr.LineOf(), true
		case workload.OpEnd:
			p.rememberCovered(start, pos, gen)
			return
		default:
			continue
		}
		n++
		if pos < covered {
			continue
		}
		if w := p.l1.Probe(l); w != nil {
			if !excl || w.State == cache.Dirty || w.State == cache.Excl {
				continue
			}
		}
		if p.findReq(l) != nil {
			continue
		}
		if len(p.inflight) >= p.par.MSHRs {
			p.rememberCovered(start, pos, gen)
			return
		}
		p.env.St.Prefetches++
		p.fetch(l, excl, nil)
	}
	p.rememberCovered(start, pos, gen)
}

// TestPrefetchJumpMatchesWalk drives two processors over one random
// stream through the same random history of scans, fetch-position moves,
// fills, invalidations and memo states: one scans with prefetchAhead, the
// other with the reference walk. After every scan both must have issued
// the same fetches in the same order, counted the same prefetches, and
// left the same memo.
func TestPrefetchJumpMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lines := 4 + rng.Intn(40)
		ins := buildStream(func(b *workload.Builder) {
			for i := 40 + rng.Intn(200); i > 0; i-- {
				a := mem.HeapAddr(uint64(rng.Intn(lines) * 64 * 17))
				switch rng.Intn(9) {
				case 0, 1, 2:
					b.Load(a)
				case 3, 4:
					b.Store(a)
				case 5:
					b.Compute(1 + rng.Intn(4))
				case 6:
					b.Acquire(rng.Intn(3))
					b.Release(rng.Intn(3))
				case 7:
					b.Barrier()
				default:
					b.IO(5)
				}
			}
		})
		jump, walk := newFillRig(t, ins), newFillRig(t, ins)
		end := len(ins) - 1 // OpEnd
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				k := []int{1, 2, 3, jump.p.par.MSHRs}[rng.Intn(4)]
				nj, nw := len(jump.issued), len(walk.issued)
				jump.p.prefetchAhead(k)
				walk.p.walkPrefetchAhead(k)
				gotJ, gotW := jump.issued[nj:], walk.issued[nw:]
				if len(gotJ) != len(gotW) {
					t.Fatalf("seed %d step %d: scan(%d) issued %v, walk %v", seed, step, k, gotJ, gotW)
				}
				for i := range gotJ {
					if gotJ[i] != gotW[i] {
						t.Fatalf("seed %d step %d: scan(%d) issued %v, walk %v", seed, step, k, gotJ, gotW)
					}
				}
				if jump.p.cov != walk.p.cov {
					t.Fatalf("seed %d step %d: memo %+v, walk %+v", seed, step, jump.p.cov, walk.p.cov)
				}
				if a, b := jump.p.env.St.Prefetches, walk.p.env.St.Prefetches; a != b {
					t.Fatalf("seed %d step %d: %d prefetches, walk %d", seed, step, a, b)
				}
			case op < 6:
				pos := min(jump.p.f.pos+rng.Intn(4), end)
				jump.p.f.pos, walk.p.f.pos = pos, pos
			case op < 8:
				if len(jump.pending) == 0 {
					continue
				}
				pend := make([]mem.Line, 0, len(jump.pending))
				for l := range jump.pending {
					pend = append(pend, l)
				}
				slices.Sort(pend)
				l := pend[rng.Intn(len(pend))]
				st := []cache.LineState{cache.Shared, cache.Excl, cache.Dirty}[rng.Intn(3)]
				jump.complete(l, st)
				walk.complete(l, st)
			case op < 9:
				l := mem.HeapAddr(uint64(rng.Intn(lines) * 64 * 17)).LineOf()
				jump.p.ApplyInvalidate(l)
				walk.p.ApplyInvalidate(l)
			default:
				// An arbitrary memo, current or stale, that reaches no
				// further than OpEnd, as every memo a scan leaves.
				from := rng.Intn(end + 1)
				cov := coverMemo{gen: jump.p.cov.gen, at: jump.p.cov.gen - uint64(rng.Intn(2)),
					from: from, to: from + rng.Intn(end-from+1)}
				jump.p.cov, walk.p.cov = cov, cov
			}
		}
	}
}
