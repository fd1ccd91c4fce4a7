package sccheck

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bulksc/internal/chunk"
	"bulksc/internal/mem"
	"bulksc/internal/sig"
)

var factory = sig.NewFactory(sig.KindExact)

// mkChunk builds a committed chunk with the given log, owner, sequence
// number and commit order.
func mkChunk(proc int, seq, order uint64, log []chunk.AccessRec) *chunk.Chunk {
	ch := chunk.New(factory, nil, proc, seq, 0, 0, 0)
	for _, rec := range log {
		if rec.IsStore {
			ch.RecordStore(rec.Addr, rec.Value, false)
		} else {
			ch.RecordLoad(rec.Addr, rec.Value, false)
		}
	}
	ch.CommitOrder = order
	ch.State = chunk.Committed
	return ch
}

func load(a mem.Addr, v uint64) chunk.AccessRec { return chunk.AccessRec{Addr: a, Value: v} }
func store(a mem.Addr, v uint64) chunk.AccessRec {
	return chunk.AccessRec{IsStore: true, Addr: a, Value: v}
}

func kinds(c *Checker) map[Kind]int {
	m := make(map[Kind]int)
	for _, v := range c.Violations() {
		m[v.Kind]++
	}
	return m
}

func TestCleanChunkHistory(t *testing.T) {
	c := New()
	const x, y mem.Addr = 0x100, 0x208
	c.CommitChunk(mkChunk(0, 1, 1, []chunk.AccessRec{
		load(x, 0),  // cold read: memory is zero
		store(x, 7), // write x
		load(x, 7),  // forwarded from own buffer
		store(y, 9), //
	}))
	c.CommitChunk(mkChunk(1, 1, 2, []chunk.AccessRec{
		load(x, 7), // sees proc 0's committed write
		load(y, 9),
		load(x, 7), // atomic re-read: same value
		store(x, 11),
	}))
	c.CommitChunk(mkChunk(0, 2, 3, []chunk.AccessRec{
		load(x, 11),
	}))
	if !c.Ok() {
		t.Fatalf("clean history flagged: %v", c.Strings())
	}
	if c.Chunks() != 3 {
		t.Fatalf("Chunks() = %d, want 3", c.Chunks())
	}
	if c.Accesses() != 9 {
		t.Fatalf("Accesses() = %d, want 9", c.Accesses())
	}
}

func TestCoherenceViolation(t *testing.T) {
	c := New()
	const x mem.Addr = 0x40
	c.CommitChunk(mkChunk(0, 1, 1, []chunk.AccessRec{store(x, 5)}))
	// Load observes a value no store produced at this point in the order.
	c.CommitChunk(mkChunk(1, 1, 2, []chunk.AccessRec{load(x, 3)}))
	if c.Ok() {
		t.Fatal("stale load not flagged")
	}
	if kinds(c)[KindCoherence] == 0 {
		t.Fatalf("want a coherence violation, got %v", c.Strings())
	}
}

func TestAtomicityViolation(t *testing.T) {
	// Chunk B reads x twice with no intervening same-chunk store and
	// observes two different values — as if chunk A's commit interleaved
	// B's reads, breaking atomicity.
	c := New()
	const x mem.Addr = 0x80
	c.CommitChunk(mkChunk(0, 1, 1, []chunk.AccessRec{store(x, 1)}))
	c.CommitChunk(mkChunk(1, 1, 2, []chunk.AccessRec{
		load(x, 0), // saw pre-A memory ...
		load(x, 1), // ... then saw A's write: interleaved
	}))
	if c.Ok() {
		t.Fatal("interleaved re-read not flagged")
	}
	k := kinds(c)
	if k[KindAtomicity] == 0 {
		t.Fatalf("want an atomicity violation, got %v", c.Strings())
	}
}

func TestForwardingViolation(t *testing.T) {
	c := New()
	const x mem.Addr = 0x80
	c.CommitChunk(mkChunk(0, 1, 1, []chunk.AccessRec{
		store(x, 42),
		load(x, 0), // must have forwarded 42
	}))
	if kinds(c)[KindForwarding] == 0 {
		t.Fatalf("want a forwarding violation, got %v", c.Strings())
	}
}

func TestTotalOrderViolations(t *testing.T) {
	t.Run("arrival", func(t *testing.T) {
		c := New()
		c.CommitChunk(mkChunk(0, 1, 2, nil))
		c.CommitChunk(mkChunk(1, 1, 1, nil)) // arrives after order 2
		if kinds(c)[KindTotalOrder] == 0 {
			t.Fatalf("out-of-order arrival not flagged: %v", c.Strings())
		}
	})
	t.Run("per-proc-seq", func(t *testing.T) {
		c := New()
		c.CommitChunk(mkChunk(0, 2, 1, nil))
		c.CommitChunk(mkChunk(0, 1, 2, nil)) // proc 0 commits #1 after #2
		if kinds(c)[KindTotalOrder] == 0 {
			t.Fatalf("per-processor sequence regression not flagged: %v", c.Strings())
		}
	})
	t.Run("order-gaps-ok", func(t *testing.T) {
		// Posthumous grants of squashed chunks consume orders that never
		// commit; gaps must not be flagged.
		c := New()
		c.CommitChunk(mkChunk(0, 1, 1, nil))
		c.CommitChunk(mkChunk(1, 1, 5, nil))
		c.CommitChunk(mkChunk(0, 2, 9, nil))
		if !c.Ok() {
			t.Fatalf("order gaps flagged: %v", c.Strings())
		}
	})
}

func TestConvAccessSCOrder(t *testing.T) {
	c := New()
	const x, y mem.Addr = 0x100, 0x108
	// Two processors, serialized perform order, program order respected.
	c.Access(0, 1, true, x, 5, false)
	c.Access(1, 1, false, x, 5, false)
	c.Access(1, 2, true, y, 6, false)
	c.Access(0, 2, false, y, 6, false)
	if !c.Ok() {
		t.Fatalf("clean conventional history flagged: %v", c.Strings())
	}
}

func TestConvAccessStoreBufferRelaxation(t *testing.T) {
	// The RC store-buffer pattern: proc 0 dispatches store(x) then
	// load(y); the load performs first, the store drains later with the
	// smaller program-order index — an SC relaxation the checker must see.
	c := New()
	const x, y mem.Addr = 0x100, 0x108
	c.Access(0, 2, false, y, 0, false) // load y performs early
	c.Access(0, 1, true, x, 1, false)  // buffered store drains late
	if c.Ok() {
		t.Fatal("store-buffer reordering not flagged")
	}
	if kinds(c)[KindProgramOrder] == 0 {
		t.Fatalf("want a program-order violation, got %v", c.Strings())
	}
}

func TestConvAccessForwardedLoadExempt(t *testing.T) {
	// A load served from the processor's own store buffer observes a value
	// not yet in the witness memory; fwd exempts it from the coherence
	// check (the drain later collects the ordering debt).
	c := New()
	const x mem.Addr = 0x100
	c.Access(0, 1, false, x, 42, true) // forwarded from own buffer
	c.Access(0, 2, true, x, 42, false)
	if !c.Ok() {
		t.Fatalf("forwarded conventional load flagged: %v", c.Strings())
	}
}

func TestViolationCap(t *testing.T) {
	c := New()
	c.MaxViolations = 3
	for i := 0; i < 10; i++ {
		c.CommitChunk(mkChunk(0, uint64(i+1), uint64(i+1),
			[]chunk.AccessRec{load(0x40, uint64(i+100))}))
	}
	if got := len(c.Violations()); got != 3 {
		t.Fatalf("retained %d violations, want 3", got)
	}
	if c.Total() < 10 {
		t.Fatalf("Total() = %d, want >= 10", c.Total())
	}
	ss := c.Strings()
	if len(ss) != 4 { // 3 retained + truncation marker
		t.Fatalf("Strings() len = %d, want 4: %v", len(ss), ss)
	}
	// The truncation marker must be self-describing: it names the count of
	// dropped records and says the cap was reached.
	marker := ss[len(ss)-1]
	if !strings.Contains(marker, fmt.Sprintf("%d more violations", c.Total()-3)) ||
		!strings.Contains(marker, "cap reached") {
		t.Fatalf("truncation marker not self-describing: %q", marker)
	}
}

// TestViolationsIsACopy pins the aliasing fix: records handed out by
// Violations must survive a subsequent Reset, which scrubs the checker's
// internal retention slice in place for warm reuse.
func TestViolationsIsACopy(t *testing.T) {
	c := New()
	c.CommitChunk(mkChunk(0, 1, 1, []chunk.AccessRec{load(0x40, 99)}))
	if c.Ok() {
		t.Fatal("seeded violation not detected")
	}
	held := c.Violations()
	if len(held) != 1 || held[0].Kind != KindCoherence {
		t.Fatalf("unexpected violations: %v", held)
	}
	want := held[0]
	c.Reset()
	if held[0] != want {
		t.Fatalf("Reset scrubbed a handed-out violation: got %+v, want %+v", held[0], want)
	}
}

// ---------------------------------------------------------------------------
// Property / mutation tests: random valid histories pass; seeded SC
// violations are always detected.
// ---------------------------------------------------------------------------

// genHistory builds a random valid chunked SC history: chunks commit in a
// random processor interleaving, each chunk's loads observing exactly what
// the witness semantics dictate.
func genHistory(rng *rand.Rand, procs, chunksPerProc, opsPerChunk int) []*chunk.Chunk {
	return genHistoryOver(rng, 16, procs, chunksPerProc, opsPerChunk)
}

// genHistoryOver is genHistory over nwords distinct words.
func genHistoryOver(rng *rand.Rand, nwords, procs, chunksPerProc, opsPerChunk int) []*chunk.Chunk {
	memory := make(map[mem.Addr]uint64)
	addrs := make([]mem.Addr, nwords)
	for i := range addrs {
		addrs[i] = mem.Addr(0x1000 + 8*i)
	}
	seqs := make([]uint64, procs)
	left := make([]int, procs)
	for i := range left {
		left[i] = chunksPerProc
	}
	var out []*chunk.Chunk
	order := uint64(0)
	remaining := procs * chunksPerProc
	for remaining > 0 {
		p := rng.Intn(procs)
		if left[p] == 0 {
			continue
		}
		left[p]--
		remaining--
		seqs[p]++
		order += uint64(1 + rng.Intn(2)) // occasional gaps
		overlay := make(map[mem.Addr]uint64)
		var log []chunk.AccessRec
		for i := 0; i < opsPerChunk; i++ {
			a := addrs[rng.Intn(len(addrs))]
			if rng.Intn(2) == 0 {
				v := rng.Uint64()%1000 + 1
				overlay[a] = v
				log = append(log, store(a, v))
			} else {
				v, ok := overlay[a]
				if !ok {
					v = memory[a]
				}
				log = append(log, load(a, v))
			}
		}
		for a, v := range overlay {
			memory[a] = v
		}
		out = append(out, mkChunk(p, seqs[p], order, log))
	}
	return out
}

func TestPropertyValidHistoriesPass(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		for _, ch := range genHistory(rng, 1+rng.Intn(4), 1+rng.Intn(5), 1+rng.Intn(12)) {
			c.CommitChunk(ch)
		}
		if !c.Ok() {
			t.Fatalf("seed %d: valid history flagged: %v", seed, c.Strings())
		}
	}
}

// TestMutationLoadValueDetected seeds a deliberate SC violation — a load
// observing a value the witness order cannot explain, the observable
// footprint of a broken-atomicity interleaving — and asserts the checker
// flags it. The checker must be shown able to fail.
func TestMutationLoadValueDetected(t *testing.T) {
	detected := 0
	tried := 0
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		history := genHistory(rng, 2+rng.Intn(3), 3, 8)
		// Collect every load position.
		type pos struct{ ci, li int }
		var loads []pos
		for ci, ch := range history {
			for li, rec := range ch.Log {
				if !rec.IsStore {
					loads = append(loads, pos{ci, li})
				}
			}
		}
		if len(loads) == 0 {
			continue
		}
		tried++
		p := loads[rng.Intn(len(loads))]
		history[p.ci].Log[p.li].Value += 1 + rng.Uint64()%5
		c := New()
		for _, ch := range history {
			c.CommitChunk(ch)
		}
		if c.Ok() {
			t.Errorf("seed %d: mutated load value (chunk %d op %d) not detected", seed, p.ci, p.li)
			continue
		}
		detected++
	}
	if tried == 0 || detected != tried {
		t.Fatalf("detected %d/%d mutations", detected, tried)
	}
}

// TestMutationCommitOrderDetected swaps two chunks' positions in the
// arrival stream without fixing up their orders and asserts the checker
// flags the broken total order.
func TestMutationCommitOrderDetected(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		history := genHistory(rng, 2, 4, 4)
		i := rng.Intn(len(history) - 1)
		history[i], history[i+1] = history[i+1], history[i]
		c := New()
		for _, ch := range history {
			c.CommitChunk(ch)
		}
		if kinds(c)[KindTotalOrder] == 0 {
			t.Fatalf("seed %d: swapped commit arrival not flagged: %v", seed, c.Strings())
		}
	}
}

// TestMutationAtomicityDetected injects a mid-chunk interleaving: chunk B's
// second read of a word observes another chunk's later write.
func TestMutationAtomicityDetected(t *testing.T) {
	c := New()
	const x mem.Addr = 0x2000
	c.CommitChunk(mkChunk(0, 1, 1, []chunk.AccessRec{store(x, 10)}))
	// Chunk on proc 1 whose re-read observes a "future" value (20), as if
	// proc 0's next chunk committed between the two reads.
	c.CommitChunk(mkChunk(1, 1, 2, []chunk.AccessRec{load(x, 10), load(x, 20)}))
	c.CommitChunk(mkChunk(0, 2, 3, []chunk.AccessRec{store(x, 20)}))
	if kinds(c)[KindAtomicity] == 0 {
		t.Fatalf("seeded atomicity violation not flagged: %v", c.Strings())
	}
}

// genAccesses builds a random conventional access stream over nwords
// words: each load observes the last store to its word, except that about
// one in bad loads observes a wrong value and about one in bad accesses
// repeats its processor's program-order index.
func genAccesses(rng *rand.Rand, nwords, procs, n, bad int) []accessRec {
	memory := make(map[mem.Addr]uint64)
	po := make([]uint64, procs)
	out := make([]accessRec, 0, n)
	for i := 0; i < n; i++ {
		p := rng.Intn(procs)
		if rng.Intn(bad) != 0 {
			po[p]++
		}
		a := mem.Addr(0x4000 + 8*rng.Intn(nwords))
		r := accessRec{proc: p, po: po[p], store: rng.Intn(3) == 0, addr: a}
		if r.store {
			r.val = rng.Uint64()%1000 + 1
			memory[a] = r.val
		} else if r.val = memory[a]; rng.Intn(bad) == 0 {
			r.val++
		}
		out = append(out, r)
	}
	return out
}

type accessRec struct {
	proc  int
	po    uint64
	store bool
	addr  mem.Addr
	val   uint64
}

// verdict is everything a run's WitnessHash folds: the audit counts and
// the text of every retained violation.
func verdict(c *Checker) string {
	return fmt.Sprintf("%d chunks, %d accesses, total %d: %q", c.Chunks(), c.Accesses(), c.Total(), c.Strings())
}

// TestWarmResetMatchesCold grows a checker's witness memory far past its
// first capacity, resets it, and audits histories that carry coherence
// violations — whose text names the last store's processor and order, so
// a stale or misindexed word state would show. The warm verdict must
// equal a fresh checker's, for chunked and conventional executions.
func TestWarmResetMatchesCold(t *testing.T) {
	warm := New()
	warm.MaxViolations = 1000
	rng := rand.New(rand.NewSource(5))
	for _, ch := range genHistoryOver(rng, 3000, 4, 30, 60) {
		warm.CommitChunk(ch)
	}
	for _, a := range genAccesses(rng, 5000, 4, 8000, 50) {
		warm.Access(a.proc, a.po, a.store, a.addr, a.val, false)
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		history := genHistoryOver(rng, 100+rng.Intn(400), 3, 10, 20)
		for _, ch := range history {
			for i := range ch.Log {
				if !ch.Log[i].IsStore && rng.Intn(15) == 0 {
					ch.Log[i].Value++
				}
			}
		}
		accesses := genAccesses(rng, 100+rng.Intn(400), 3, 2000, 40)
		for _, shape := range []string{"chunks", "accesses"} {
			cold := New()
			warm.Reset()
			for _, c := range []*Checker{cold, warm} {
				c.MaxViolations = 1000
				if shape == "chunks" {
					for _, ch := range history {
						c.CommitChunk(ch)
					}
					continue
				}
				for _, a := range accesses {
					c.Access(a.proc, a.po, a.store, a.addr, a.val, false)
				}
			}
			if cold.Ok() {
				t.Fatalf("seed %d %s: no violation seeded", seed, shape)
			}
			if w, c := verdict(warm), verdict(cold); w != c {
				t.Fatalf("seed %d %s: warm verdict\n%s\ncold verdict\n%s", seed, shape, w, c)
			}
		}
	}
}

// BenchmarkWitness measures the checker's per-access cost over a
// footprint of 4096 words, once for chunked executions and once for
// conventional ones. An op is one audit of the whole history from a
// reset checker; ns/access divides it by the accesses audited.
func BenchmarkWitness(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	history := genHistoryOver(rng, 4096, 8, 250, 40)
	accesses := genAccesses(rng, 4096, 8, 100000, 1<<30)
	b.Run("chunks", func(b *testing.B) {
		ops := 0
		for _, ch := range history {
			ops += len(ch.Log)
		}
		c := New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Reset()
			for _, ch := range history {
				c.CommitChunk(ch)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/access")
	})
	b.Run("accesses", func(b *testing.B) {
		c := New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Reset()
			for _, a := range accesses {
				c.Access(a.proc, a.po, a.store, a.addr, a.val, false)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(accesses)), "ns/access")
	})
}
