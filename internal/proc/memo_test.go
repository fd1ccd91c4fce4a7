package proc

import (
	"testing"

	"bulksc/internal/chunk"
	"bulksc/internal/mem"
	"bulksc/internal/workload"
)

// memoProc returns a processor with one open chunk and no events run: the
// forwarding memo tests drive its chunk list by hand.
func memoProc(t *testing.T) *BulkProc {
	t.Helper()
	fe := newFakeEnv()
	p := NewBulkProc(0, fe.env, DefaultParams(), DefaultOpts(), buildStream(func(b *workload.Builder) {
		b.Compute(10)
	}))
	if !p.openChunk() {
		t.Fatal("no chunk slot")
	}
	return p
}

// wantNegative asserts that a sync read of a finds no buffered value (the
// test addresses hold 0 in memory) and that the miss is now memoized.
func wantNegative(t *testing.T, p *BulkProc, a mem.Addr, when string) {
	t.Helper()
	if v := p.readValue(a); v != 0 {
		t.Fatalf("%s: read %d, want no buffered value", when, v)
	}
	if !p.fwd.holds(a, p.chunks) {
		t.Fatalf("%s: negative forward not memoized", when)
	}
}

// TestForwardMemoInvalidation: every change to a key component of the
// negative store-forwarding memo — the chunk list's length, a chunk's
// write-buffer size, State and Gen — invalidates it, so a later sync read
// sees the value a full scan would.
func TestForwardMemoInvalidation(t *testing.T) {
	a := mem.HeapAddr(0x40)
	other := mem.HeapAddr(0x4000)

	t.Run("store in current chunk", func(t *testing.T) {
		p := memoProc(t)
		wantNegative(t, p, a, "before store")
		p.cur.RecordStore(a, 7, false)
		if v := p.readValue(a); v != 7 {
			t.Fatalf("after store: read %d, want the buffered 7", v)
		}
	})

	t.Run("new chunk opens", func(t *testing.T) {
		p := memoProc(t)
		wantNegative(t, p, a, "one chunk")
		if !p.openChunk() {
			t.Fatal("no second chunk slot")
		}
		p.cur.RecordStore(a, 9, false)
		if v := p.readValue(a); v != 9 {
			t.Fatalf("after the younger chunk's store: read %d, want the buffered 9", v)
		}
	})

	t.Run("older chunk granted", func(t *testing.T) {
		p := memoProc(t)
		older := p.cur
		p.closeChunk()
		if !p.openChunk() {
			t.Fatal("no second chunk slot")
		}
		wantNegative(t, p, a, "two chunks")
		p.applyCommit(older, 1)
		if older.State != chunk.Committing {
			t.Fatalf("older chunk in state %v after its grant", older.State)
		}
		if p.fwd.holds(a, p.chunks) {
			t.Fatal("memo survived the older chunk's grant")
		}
		wantNegative(t, p, a, "after the grant")
	})

	t.Run("squash and reuse", func(t *testing.T) {
		p := memoProc(t)
		ch := p.cur
		ch.RecordStore(other, 1, false)
		wantNegative(t, p, a, "before squash")
		p.squashFrom(0, true)
		if !p.openChunk() {
			t.Fatal("no chunk slot after the squash")
		}
		if p.cur != ch {
			t.Fatal("squashed chunk was not reused")
		}
		// Same object, same State, same write-buffer size: only Gen moved.
		ch.RecordStore(a, 5, false)
		if v := p.readValue(a); v != 5 {
			t.Fatalf("reused chunk: read %d, want the buffered 5", v)
		}
	})

	t.Run("list longer than the key", func(t *testing.T) {
		p := memoProc(t)
		p.chunks = append(p.chunks, p.cur, p.cur) // three entries
		if v := p.readValue(a); v != 0 {
			t.Fatalf("read %d from an empty buffer", v)
		}
		if p.fwd.holds(a, p.chunks) {
			t.Fatal("memo recorded a list longer than its key")
		}
	})
}

// TestFetcherCacheFollowsPosition: the cached instruction follows every
// move of the interpreter position, including a checkpoint restore.
func TestFetcherCacheFollowsPosition(t *testing.T) {
	f := newFetcher(buildStream(func(b *workload.Builder) {
		b.Compute(10)
		b.Load(mem.HeapAddr(0))
	}))
	cp := f.checkpoint()
	if f.current().Kind != workload.OpCompute {
		t.Fatal("position 0 is not the compute block")
	}
	f.pos++
	if f.current().Kind != workload.OpLoad {
		t.Fatal("cache did not follow the position")
	}
	f.restore(cp)
	if f.current().Kind != workload.OpCompute || f.done() {
		t.Fatal("cache did not follow the restore")
	}
	f.pos = 2
	if !f.done() {
		t.Fatal("end of stream not seen")
	}
}
