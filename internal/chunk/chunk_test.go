package chunk

import (
	"slices"
	"testing"
	"testing/quick"

	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/sig"
)

func newChunk(k sig.Kind) *Chunk {
	return New(sig.NewFactory(k), nil, 0, 1, 0, 0, 1000)
}

func TestRecordLoadUpdatesR(t *testing.T) {
	c := newChunk(sig.KindExact)
	c.RecordLoad(0x1000, 7, false)
	l := mem.Addr(0x1000).LineOf()
	if !c.R.MayContain(l) {
		t.Fatal("R signature missing loaded line")
	}
	if !c.RSet.Has(l) {
		t.Fatal("RSet missing loaded line")
	}
	if len(c.Log) != 1 || c.Log[0].IsStore || c.Log[0].Value != 7 {
		t.Fatal("load log wrong")
	}
}

func TestPrivateLoadSkipsR(t *testing.T) {
	c := newChunk(sig.KindExact)
	c.RecordLoad(0x2000, 1, true)
	if !c.R.Empty() || c.RSet.Len() != 0 {
		t.Fatal("private load polluted R")
	}
	if len(c.Log) != 1 {
		t.Fatal("private load not logged")
	}
}

func TestRecordStoreRouting(t *testing.T) {
	c := newChunk(sig.KindExact)
	c.RecordStore(0x1000, 11, false)
	c.RecordStore(0x3000, 22, true)
	if !c.W.MayContain(mem.Addr(0x1000).LineOf()) {
		t.Fatal("shared store missing from W")
	}
	if c.W.MayContain(mem.Addr(0x3000).LineOf()) {
		t.Fatal("private store leaked into W")
	}
	if !c.Wpriv.MayContain(mem.Addr(0x3000).LineOf()) {
		t.Fatal("private store missing from Wpriv")
	}
	if v, ok := c.Forward(0x1000); !ok || v != 11 {
		t.Fatal("forwarding failed for shared store")
	}
	if v, ok := c.Forward(0x3000); !ok || v != 22 {
		t.Fatal("forwarding failed for private store")
	}
}

func TestForwardMissesOtherAddrs(t *testing.T) {
	c := newChunk(sig.KindExact)
	c.RecordStore(0x1000, 5, false)
	if _, ok := c.Forward(0x1008); ok {
		t.Fatal("forwarded from different word")
	}
	if v, ok := c.Forward(0x1004); !ok || v != 5 {
		t.Fatal("sub-word address should alias its containing word")
	}
}

func TestPromoteToW(t *testing.T) {
	c := newChunk(sig.KindExact)
	c.RecordStore(0x4000, 9, true)
	l := mem.Addr(0x4000).LineOf()
	if !c.PromoteToW(l) {
		t.Fatal("PromoteToW failed for private line")
	}
	if c.PrivSet.Has(l) {
		t.Fatal("line still in PrivSet after promotion")
	}
	if !c.W.MayContain(l) {
		t.Fatal("promoted line missing from W")
	}
	if c.PromoteToW(l) {
		t.Fatal("double promotion reported success")
	}
	if c.PromoteToW(mem.Line(999)) {
		t.Fatal("promotion of unknown line reported success")
	}
}

func TestWroteLine(t *testing.T) {
	c := newChunk(sig.KindExact)
	c.RecordStore(0x1000, 1, false)
	c.RecordStore(0x2000, 2, true)
	if !c.WroteLine(mem.Addr(0x1000).LineOf()) || !c.WroteLine(mem.Addr(0x2000).LineOf()) {
		t.Fatal("WroteLine missed a written line")
	}
	if c.WroteLine(mem.Addr(0x9000).LineOf()) {
		t.Fatal("WroteLine reported unwritten line")
	}
}

func TestConflictDetectionTrue(t *testing.T) {
	for _, k := range []sig.Kind{sig.KindBloom, sig.KindExact} {
		local := newChunk(k)
		local.RecordLoad(0x1000, 0, false)
		wc := sig.NewFactory(k)()
		wc.Add(mem.Addr(0x1000).LineOf())
		trueW := lineset.NewSetOf(mem.Addr(0x1000).LineOf())
		hit, genuine := local.ConflictsWith(wc, trueW)
		if !hit || !genuine {
			t.Fatalf("%v: genuine conflict not detected (hit=%v genuine=%v)", k, hit, genuine)
		}
	}
}

func TestConflictDetectionWriteWrite(t *testing.T) {
	local := newChunk(sig.KindExact)
	local.RecordStore(0x1000, 1, false)
	wc := sig.NewExact()
	wc.Add(mem.Addr(0x1000).LineOf())
	hit, _ := local.ConflictsWith(wc, nil)
	if !hit {
		t.Fatal("W∩W conflict not detected")
	}
}

func TestNoConflictOnDisjoint(t *testing.T) {
	local := newChunk(sig.KindExact)
	local.RecordLoad(0x1000, 0, false)
	wc := sig.NewExact()
	wc.Add(mem.Addr(0x8000).LineOf())
	if hit, _ := local.ConflictsWith(wc, nil); hit {
		t.Fatal("disjoint chunks conflicted (exact sigs cannot alias)")
	}
}

func TestPrivateWritesExemptFromConflicts(t *testing.T) {
	local := newChunk(sig.KindExact)
	local.RecordStore(0x5000, 1, true) // private write only
	wc := sig.NewExact()
	wc.Add(mem.Addr(0x5000).LineOf())
	if hit, _ := local.ConflictsWith(wc, nil); hit {
		t.Fatal("Wpriv participated in disambiguation")
	}
}

func TestAliasedConflictClassification(t *testing.T) {
	// With bloom signatures, find a case where signatures intersect but no
	// true line is shared: brute-force search two single-line sigs that
	// alias.
	found := false
	for a := mem.Line(0); a < 4096 && !found; a++ {
		local := newChunk(sig.KindBloom)
		local.RecordLoad(a.Addr(), 0, false)
		for b := mem.Line(100000); b < 101000; b++ {
			if a == b {
				continue
			}
			wc := sig.NewBloom()
			wc.Add(b)
			trueW := lineset.NewSetOf(b)
			if hit, genuine := local.ConflictsWith(wc, trueW); hit {
				if genuine {
					t.Fatal("aliased conflict misclassified as genuine")
				}
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no aliasing pair found in search range (hash too strong)")
	}
}

func TestActiveStates(t *testing.T) {
	c := newChunk(sig.KindExact)
	for st, want := range map[State]bool{
		Executing: true, Completed: true, Arbitrating: true,
		Committing: false, Committed: false, Squashed: false,
	} {
		c.State = st
		if c.Active() != want {
			t.Errorf("Active() in %v = %v, want %v", st, c.Active(), want)
		}
	}
}

func TestStateStrings(t *testing.T) {
	if Executing.String() != "executing" || Squashed.String() != "squashed" {
		t.Fatal("State strings wrong")
	}
}

// Property: a chunk always conflicts with a committing W that contains any
// line in its R or W set (no false negatives, either signature kind).
func TestQuickNoMissedConflicts(t *testing.T) {
	for _, k := range []sig.Kind{sig.KindBloom, sig.KindExact} {
		k := k
		f := func(reads, writes []uint32, pick uint8) bool {
			if len(reads)+len(writes) == 0 {
				return true
			}
			c := newChunk(k)
			for _, r := range reads {
				c.RecordLoad(mem.Addr(r)*mem.LineBytes, 0, false)
			}
			for _, w := range writes {
				c.RecordStore(mem.Addr(w)*mem.LineBytes, 0, false)
			}
			all := append(append([]uint32{}, reads...), writes...)
			target := mem.Line(all[int(pick)%len(all)])
			wc := sig.NewFactory(k)()
			wc.Add(target)
			hit, _ := c.ConflictsWith(wc, lineset.NewSetOf(target))
			return hit
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

// TestPoolRecycledChunkIsPristine: a chunk recycled through the pool after
// a squash must behave exactly like a fresh one — in particular its write
// buffer must not forward values buffered by the previous incarnation.
// Before Map.Reset scrubbed its value table, a recycled chunk could leak
// the squashed chunk's speculative stores to a later Forward probe.
func TestPoolRecycledChunkIsPristine(t *testing.T) {
	f := sig.NewFactory(sig.KindExact)
	var pool Pool
	c := pool.Get(f, nil, 0, 1, 0, 0, 1000)
	for i := 0; i < 32; i++ {
		a := mem.Addr(i * 8)
		c.RecordStore(a, 0xbad0+uint64(i), i%2 == 0)
		c.RecordLoad(a+4096, uint64(i), false)
	}
	gen := c.Gen
	pool.Put(c) // squash path

	r := pool.Get(f, nil, 3, 9, 1, 7, 500)
	if r != c {
		t.Fatal("pool did not recycle the chunk")
	}
	if r.Gen != gen+1 {
		t.Fatalf("Gen = %d, want %d (stale callbacks must be defused)", r.Gen, gen+1)
	}
	if r.Proc != 3 || r.Seq != 9 || r.State != Executing || len(r.Log) != 0 {
		t.Fatalf("recycled chunk not reinitialized: %v", r)
	}
	for i := 0; i < 32; i++ {
		a := mem.Addr(i * 8)
		if v, ok := r.Forward(a); ok {
			t.Fatalf("recycled chunk forwards stale value %#x for addr %d", v, a)
		}
		l := a.LineOf()
		if r.RSet.Has(mem.Addr(i*8+4096).LineOf()) || r.WSet.Has(l) || r.PrivSet.Has(l) {
			t.Fatal("recycled chunk retains previous incarnation's sets")
		}
	}
	if !r.R.Empty() || !r.W.Empty() || !r.Wpriv.Empty() {
		t.Fatal("recycled chunk retains previous incarnation's signatures")
	}
}

// BenchmarkChunkAccessLoop measures the per-access bookkeeping of an
// executing chunk through a full squash/re-execute recycle: pooled Get,
// a realistic load/store mix (RecordLoad/RecordStore with forwarding
// probes), then Put. This is the loop that dominates squash-heavy apps
// (radix, raytrace); steady state must be allocation-free — the pooled
// chunk's signatures, open-addressed sets, write buffer and log all reuse
// their backing storage.
func BenchmarkChunkAccessLoop(b *testing.B) {
	f := sig.NewFactory(sig.KindBloom)
	var pool Pool
	const accesses = 64 // lines touched per simulated chunk body
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := pool.Get(f, nil, 0, uint64(i), 0, 0, 1000)
		for j := 0; j < accesses; j++ {
			a := mem.Addr(j*64 + (i&7)*4096)
			if j&3 == 0 {
				c.RecordStore(a, uint64(j), j&7 == 0)
			} else {
				if v, ok := c.Forward(a); ok {
					_ = v
				}
				c.RecordLoad(a, uint64(j), false)
			}
		}
		pool.Put(c) // squash path: recycle everything
	}
}

// TestPoolAdopt exercises the cross-run retirement path: a committed
// chunk re-enters the pool via Adopt, which must defuse stale callbacks
// (Gen bump), route its signatures to the SigRecycler, restore its sets
// to the cold zero-value shape, and leave the chunk ready for the next
// run's Get to rebuild signatures from the current factory.
func TestPoolAdopt(t *testing.T) {
	f := sig.NewFactory(sig.KindBloom)
	var pool Pool
	var recycled []sig.Signature
	pool.SigRecycler = func(s sig.Signature) { recycled = append(recycled, s) }

	c := pool.Get(f, nil, 0, 1, 0, 0, 1000)
	for i := 0; i < 16; i++ {
		a := mem.Addr(i * 64)
		c.RecordStore(a, uint64(i), i%2 == 0)
		c.RecordLoad(a+4096, uint64(i), false)
	}
	c.State = Committed
	gen := c.Gen
	pool.Adopt(c)

	if c.Gen != gen+1 {
		t.Fatalf("Adopt left Gen = %d, want %d (stale callbacks must be defused)", c.Gen, gen+1)
	}
	if len(recycled) != 3 {
		t.Fatalf("Adopt routed %d signatures to SigRecycler, want 3 (R, W, Wpriv)", len(recycled))
	}
	if c.R != nil || c.W != nil || c.Wpriv != nil {
		t.Fatal("Adopt retained detached signatures on the chunk")
	}
	if c.RSet.Len() != 0 || c.WSet.Len() != 0 || c.PrivSet.Len() != 0 || len(c.Log) != 0 {
		t.Fatal("Adopt did not restore cold shape")
	}

	r := pool.Get(f, nil, 2, 5, 1, 3, 700)
	if r != c {
		t.Fatal("pool did not recycle the adopted chunk")
	}
	if r.R == nil || r.W == nil || r.Wpriv == nil {
		t.Fatal("Get did not rebuild signatures for an adopted chunk")
	}
	if !r.R.Empty() || !r.W.Empty() || !r.Wpriv.Empty() {
		t.Fatal("rebuilt signatures not empty")
	}
	if r.Proc != 2 || r.Seq != 5 || r.State != Executing {
		t.Fatalf("adopted chunk not reinitialized: %+v", r)
	}
	if _, ok := r.Forward(0); ok {
		t.Fatal("adopted chunk forwards a stale value")
	}
}

// TestRepeatLoadsMatchAlwaysInsert: RecordLoad's repeat-load fast paths
// (no signature insert for a line already in RSet, no RSet probe for a
// repeat of the previous load's line) leave the chunk exactly as inserting
// every load would. RSet must grow at the same load — including a repeat
// of the previous line that lands on the growth threshold — and iterate in
// the same order, and R and the live summary must hold the same bits.
func TestRepeatLoadsMatchAlwaysInsert(t *testing.T) {
	c := New(sig.NewFactory(sig.KindBloom), nil, 0, 1, 0, 0, 1000)
	c.Sum = sig.NewBloom()
	var refSet lineset.Set
	refR, refSum := sig.NewBloom(), sig.NewBloom()
	load := func(l mem.Line) {
		t.Helper()
		c.RecordLoad(mem.Addr(uint64(l)*mem.LineBytes), 0, false)
		refSet.Add(l)
		refR.Add(l)
		refSum.Add(l)
		if got, want := c.RSet.AppendTo(nil), refSet.AppendTo(nil); !slices.Equal(got, want) {
			t.Fatalf("after load of line %d: RSet order %v, want %v", l, got, want)
		}
		if c.RSet.AtGrowth() != refSet.AtGrowth() {
			t.Fatalf("after load of line %d: RSet capacity differs from the always-insert set", l)
		}
	}
	// Twelve distinct lines fill the initial 16-slot table to its growth
	// threshold; the repeat of the twelfth must still grow it.
	for i := 0; i < 11; i++ {
		load(mem.Line(1000 + 37*i))
		load(mem.Line(1000 + 37*i)) // consecutive repeat below the threshold
	}
	load(mem.Line(1000 + 37*11))
	if !refSet.AtGrowth() {
		t.Fatal("test setup: the reference set is not at its growth threshold")
	}
	load(mem.Line(1000 + 37*11))
	// Non-consecutive repeats, private loads and stores in between, and the
	// next threshold (24 of 32 slots).
	for i := 0; i < 16; i++ {
		load(mem.Line(5000 + 101*i))
		c.RecordLoad(mem.Addr(0x77000), 0, true)
		c.RecordStore(mem.Addr(uint64(5000+101*i)*mem.LineBytes), 1, false)
		load(mem.Line(1000 + 37*(i%12)))
		load(mem.Line(1000 + 37*(i%12)))
	}
	for name, pair := range map[string][2]sig.Signature{"R": {c.R, refR}, "summary": {c.Sum, refSum}} {
		got, want := pair[0], pair[1]
		if got.CandidateSets(sig.BankBits) != want.CandidateSets(sig.BankBits) {
			t.Errorf("%s: bank-0 bits differ from the always-insert signature", name)
		}
		for l := mem.Line(0); l < 1<<16; l++ {
			if got.MayContain(l) != want.MayContain(l) {
				t.Fatalf("%s: MayContain(%d) = %v, always-insert signature says %v", name, l, got.MayContain(l), want.MayContain(l))
			}
		}
	}
}

// TestRepeatLoadMemoClearedOnReuse: a recycled chunk does not inherit the
// previous incarnation's repeat-load memo — the first load of a reused
// chunk always lands in its (emptied) RSet and R.
func TestRepeatLoadMemoClearedOnReuse(t *testing.T) {
	var p Pool
	f := sig.NewFactory(sig.KindBloom)
	c := p.Get(f, nil, 0, 1, 0, 0, 1000)
	c.RecordLoad(0x1000, 0, false)
	p.Put(c)
	if c2 := p.Get(f, nil, 0, 2, 0, 0, 1000); c2 != c {
		t.Fatal("pool did not hand back the squashed chunk")
	}
	c.RecordLoad(0x1000, 0, false)
	if l := mem.Addr(0x1000).LineOf(); !c.RSet.Has(l) || !c.R.MayContain(l) {
		t.Fatal("first load after reuse skipped RSet or R")
	}
}
