package directory

import (
	"testing"

	"bulksc/internal/arbiter"
	"bulksc/internal/cache"
	"bulksc/internal/chunk"
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/sig"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
)

// fakePort records the directory's calls to one cache.
type fakePort struct {
	invalidated []mem.Line
	commits     []*Commit
	dirtyLines  map[mem.Line]bool
}

func newFakePort() *fakePort { return &fakePort{dirtyLines: make(map[mem.Line]bool)} }

func (f *fakePort) ApplyInvalidate(l mem.Line) { f.invalidated = append(f.invalidated, l) }
func (f *fakePort) ApplyCommit(c *Commit)      { f.commits = append(f.commits, c) }
func (f *fakePort) SnoopDirty(l mem.Line) (bool, bool) {
	had := f.dirtyLines[l]
	delete(f.dirtyLines, l)
	return had, had
}
func (f *fakePort) SnoopInvalidate(l mem.Line) bool {
	had := f.dirtyLines[l]
	delete(f.dirtyLines, l)
	f.invalidated = append(f.invalidated, l)
	return had
}

type dirHarness struct {
	eng   *sim.Engine
	st    *stats.Stats
	dir   *Directory
	ports []*fakePort
	done  []arbiter.Token
}

func newDirHarness(nprocs int) *dirHarness {
	h := &dirHarness{eng: sim.NewEngine(1), st: stats.New()}
	nw := network.New(h.eng, h.st)
	l2 := cache.NewL2(1024, 8)
	h.dir = New(0, h.eng, nw, h.st, l2)
	var ports []CachePort
	for i := 0; i < nprocs; i++ {
		fp := newFakePort()
		h.ports = append(h.ports, fp)
		ports = append(ports, fp)
	}
	h.dir.AttachPorts(ports)
	h.dir.OnDone = func(tok arbiter.Token) { h.done = append(h.done, tok) }
	return h
}

func (h *dirHarness) read(proc int, l mem.Line, excl bool) cache.LineState {
	var got cache.LineState
	replied := false
	h.dir.Read(proc, l, excl, func(st int) { got = cache.LineState(st); replied = true })
	h.eng.Run(nil)
	if !replied {
		panic("read never completed")
	}
	return got
}

func TestFirstReadGrantsExclusive(t *testing.T) {
	h := newDirHarness(2)
	if st := h.read(0, 100, false); st != cache.Excl {
		t.Fatalf("first read granted %v, want Excl", st)
	}
	sharers, dirty, _ := h.dir.State(100)
	if sharers != 1 || dirty {
		t.Fatalf("state = (%b, %v), want sharer 0 only, clean", sharers, dirty)
	}
	if h.st.L2Misses != 1 {
		t.Fatal("cold read did not miss L2")
	}
}

func TestSecondReadGrantsShared(t *testing.T) {
	h := newDirHarness(2)
	h.read(0, 100, false)
	if st := h.read(1, 100, false); st != cache.Shared {
		t.Fatalf("second read granted %v, want Shared", st)
	}
	sharers, _, _ := h.dir.State(100)
	if sharers != 0b11 {
		t.Fatalf("sharers = %b, want both", sharers)
	}
	if h.st.L2Hits != 1 {
		t.Fatal("warm read did not hit L2")
	}
}

func TestReadExclInvalidatesSharers(t *testing.T) {
	h := newDirHarness(3)
	h.read(0, 100, false)
	h.read(1, 100, false)
	if st := h.read(2, 100, true); st != cache.Dirty {
		t.Fatalf("excl read granted %v, want Dirty", st)
	}
	sharers, dirty, owner := h.dir.State(100)
	if sharers != 0b100 || !dirty || owner != 2 {
		t.Fatalf("state = (%b, %v, %d)", sharers, dirty, owner)
	}
	if len(h.ports[0].invalidated) != 1 || len(h.ports[1].invalidated) != 1 {
		t.Fatal("sharers not invalidated")
	}
	if len(h.ports[2].invalidated) != 0 {
		t.Fatal("requester invalidated itself")
	}
	if h.st.ConvInvalidations != 2 {
		t.Fatalf("ConvInvalidations = %d, want 2", h.st.ConvInvalidations)
	}
}

func TestReadFromDirtyOwnerForwards(t *testing.T) {
	h := newDirHarness(2)
	h.read(0, 100, true)
	h.ports[0].dirtyLines[100] = true
	if st := h.read(1, 100, false); st != cache.Shared {
		t.Fatalf("read granted %v, want Shared", st)
	}
	sharers, dirty, _ := h.dir.State(100)
	if dirty || sharers != 0b11 {
		t.Fatalf("state after forward = (%b, %v)", sharers, dirty)
	}
	if h.st.Writebacks == 0 {
		t.Fatal("owner forward did not produce a writeback")
	}
}

func TestFalseOwnerRecovery(t *testing.T) {
	h := newDirHarness(2)
	h.read(0, 100, true)
	// Proc 0 does NOT have the line dirty (false owner).
	if st := h.read(1, 100, false); st != cache.Shared {
		t.Fatalf("read granted %v, want Shared", st)
	}
	sharers, dirty, _ := h.dir.State(100)
	if dirty {
		t.Fatal("dirty bit survived false-owner recovery")
	}
	if sharers&1 != 0 {
		t.Fatal("false owner still recorded as sharer")
	}
}

func TestWriteExclFromDirtyOwner(t *testing.T) {
	h := newDirHarness(2)
	h.read(0, 100, true)
	h.ports[0].dirtyLines[100] = true
	if st := h.read(1, 100, true); st != cache.Dirty {
		t.Fatalf("excl read granted %v, want Dirty", st)
	}
	if len(h.ports[0].invalidated) != 1 {
		t.Fatal("old owner not invalidated")
	}
	_, dirty, owner := h.dir.State(100)
	if !dirty || owner != 1 {
		t.Fatal("ownership not transferred")
	}
}

func TestWritebackClearsDirty(t *testing.T) {
	h := newDirHarness(2)
	h.read(0, 100, true)
	h.dir.Writeback(0, 100, false)
	h.eng.Run(nil)
	sharers, dirty, _ := h.dir.State(100)
	if dirty || sharers != 1 {
		t.Fatalf("state after writeback = (%b, %v)", sharers, dirty)
	}
	h.dir.Writeback(0, 100, true)
	h.eng.Run(nil)
	sharers, _, _ = h.dir.State(100)
	if sharers != 0 {
		t.Fatal("drop writeback did not clear sharer")
	}
}

// --- BulkSC commit path ---------------------------------------------------

func commitOf(proc int, tok arbiter.Token, lines ...mem.Line) *Commit {
	w := sig.NewExact()
	trueW := &lineset.Set{}
	for _, l := range lines {
		w.Add(l)
		trueW.Add(l)
	}
	return &Commit{Tok: tok, Proc: proc, W: w, TrueW: trueW}
}

func TestCommitCase2TransfersOwnership(t *testing.T) {
	h := newDirHarness(3)
	h.read(0, 100, false) // committer fetched the line (sharer)
	h.read(1, 100, false) // another sharer
	h.read(2, 200, false) // unrelated
	h.dir.ProcessCommit(commitOf(0, 1, 100))
	h.eng.Run(nil)
	sharers, dirty, owner := h.dir.State(100)
	if sharers != 0b001 || !dirty || owner != 0 {
		t.Fatalf("state = (%b, %v, %d), want committer-owned dirty", sharers, dirty, owner)
	}
	if len(h.ports[1].commits) != 1 {
		t.Fatal("sharer did not receive W signature")
	}
	if len(h.ports[2].commits) != 0 {
		t.Fatal("non-sharer received W signature")
	}
	if len(h.done) != 1 || h.done[0] != 1 {
		t.Fatalf("OnDone = %v, want [1]", h.done)
	}
	if h.st.WSigNodeSends != 1 {
		t.Fatalf("WSigNodeSends = %d, want 1", h.st.WSigNodeSends)
	}
	if h.st.DirUpdates != 1 || h.st.DirBadUpdates != 0 {
		t.Fatalf("updates = %d/%d", h.st.DirUpdates, h.st.DirBadUpdates)
	}
}

func TestCommitNoSharersCompletesImmediately(t *testing.T) {
	h := newDirHarness(2)
	h.read(0, 100, false)
	h.dir.ProcessCommit(commitOf(0, 7, 100))
	h.eng.Run(nil)
	if len(h.done) != 1 {
		t.Fatal("commit without sharers did not complete")
	}
	if h.st.WSigNodeSends != 0 {
		t.Fatal("W forwarded with empty invalidation list")
	}
}

func TestCommitCase1And3AreNoOps(t *testing.T) {
	h := newDirHarness(3)
	// Case 1: line shared by others, committer not a sharer.
	h.read(1, 100, false)
	// Case 3: line dirty at another proc, committer not a sharer.
	h.read(2, 200, true)
	h.dir.ProcessCommit(commitOf(0, 2, 100, 200))
	h.eng.Run(nil)
	s1, d1, _ := h.dir.State(100)
	if s1 != 0b010 || d1 {
		t.Fatal("case-1 entry mutated")
	}
	_, d2, o2 := h.dir.State(200)
	if !d2 || o2 != 2 {
		t.Fatal("case-3 entry mutated")
	}
	if len(h.ports[1].commits)+len(h.ports[2].commits) != 0 {
		t.Fatal("no-op cases forwarded W")
	}
	if h.st.DirLookups != 2 {
		t.Fatalf("DirLookups = %d, want 2", h.st.DirLookups)
	}
	// Neither line was truly... both were truly written per TrueW, so no
	// unnecessary lookups.
	if h.st.DirUnnecessary != 0 {
		t.Fatal("unnecessary lookups miscounted")
	}
}

func TestCommitAliasedLookupCounted(t *testing.T) {
	h := newDirHarness(2)
	h.read(1, 300, false)
	// Committer's exact set is {100} but the (exact) signature also
	// carries 300 to emulate aliasing deterministically.
	c := commitOf(0, 3, 100)
	c.W.Add(300)
	h.dir.ProcessCommit(c)
	h.eng.Run(nil)
	if h.st.DirUnnecessary != 1 {
		t.Fatalf("DirUnnecessary = %d, want 1", h.st.DirUnnecessary)
	}
}

func TestReadBouncedDuringCommit(t *testing.T) {
	h := newDirHarness(3)
	h.read(0, 100, false)
	h.read(1, 100, false)
	// Start a commit but hold its completion by not running to quiescence:
	// instead, issue a read at the same time and observe the bounce stat.
	h.dir.ProcessCommit(commitOf(0, 9, 100))
	gotRead := false
	h.dir.Read(2, 100, false, func(int) { gotRead = true })
	h.eng.Run(nil)
	if !gotRead {
		t.Fatal("bounced read never completed")
	}
	if h.st.ReadBounces == 0 {
		t.Fatal("read during commit was not bounced")
	}
	if len(h.done) != 1 {
		t.Fatal("commit did not complete")
	}
}

func TestPrivCommitInvalidatesWithoutDone(t *testing.T) {
	h := newDirHarness(2)
	h.read(0, 100, false)
	h.read(1, 100, false)
	c := commitOf(0, 11, 100)
	h.dir.ProcessPrivCommit(c, chunk.Hold{})
	h.eng.Run(nil)
	if len(h.ports[1].commits) != 1 {
		t.Fatal("priv commit not forwarded to sharer")
	}
	if !h.ports[1].commits[0].Priv {
		t.Fatal("forwarded commit not marked private")
	}
	if len(h.done) != 0 {
		t.Fatal("priv commit signaled the arbiter")
	}
}

func TestBusyEntrySerializesRequests(t *testing.T) {
	h := newDirHarness(3)
	h.read(0, 100, true)
	h.ports[0].dirtyLines[100] = true
	// Two concurrent reads race on the dirty line; both must complete.
	done := 0
	h.dir.Read(1, 100, false, func(int) { done++ })
	h.dir.Read(2, 100, false, func(int) { done++ })
	h.eng.Run(nil)
	if done != 2 {
		t.Fatalf("%d of 2 racing reads completed", done)
	}
	sharers, dirty, _ := h.dir.State(100)
	if dirty || sharers != 0b111 {
		t.Fatalf("state after race = (%b, %v)", sharers, dirty)
	}
}

func TestDirectoryCacheDisplacement(t *testing.T) {
	h := newDirHarness(2)
	h.dir.MaxEntries = 4
	for i := 0; i < 6; i++ {
		h.read(0, mem.Line(100+i), false)
	}
	if h.dir.Entries() > 4 {
		t.Fatalf("directory cache holds %d entries, limit 4", h.dir.Entries())
	}
	if h.st.DirCacheEvicts != 2 {
		t.Fatalf("DirCacheEvicts = %d, want 2", h.st.DirCacheEvicts)
	}
	if len(h.ports[0].commits) != 2 {
		t.Fatalf("sharer received %d displacement signatures, want 2", len(h.ports[0].commits))
	}
}

func TestCommitTrafficCategories(t *testing.T) {
	h := newDirHarness(2)
	h.read(0, 100, false)
	h.read(1, 100, false)
	base := h.st.TrafficBytes[stats.CatWrSig]
	h.dir.ProcessCommit(commitOf(0, 5, 100))
	h.eng.Run(nil)
	if h.st.TrafficBytes[stats.CatWrSig] != base+network.SigBytes {
		t.Fatal("W forward not charged as WrSig")
	}
	if h.st.TrafficBytes[stats.CatInv] == 0 {
		t.Fatal("ack not charged as Inv")
	}
}
