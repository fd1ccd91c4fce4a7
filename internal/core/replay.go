package core

import (
	"fmt"
	"sort"

	"bulksc/internal/chunk"
	"bulksc/internal/mem"
)

// CommitRecord is one committed chunk as the replay checker and
// DeterminismHash read it: the chunk's identity, its place in the global
// commit order, its size and its program-order access log. The commit log
// copies it out of the chunk at the commit instant, so the chunk itself
// is recycled like any other.
type CommitRecord struct {
	Proc        int    // committing processor
	Seq         uint64 // per-processor chunk sequence number
	CommitOrder uint64 // global commit order
	Executed    int    // dynamic instructions in the chunk
	// Log is the chunk's access log, a capacity-limited window into one
	// of the log blocks the Result owns: appending to it copies, so no
	// record can overwrite its neighbour's accesses.
	Log []chunk.AccessRec
}

// Log blocks start small, so a litmus-sized run allocates little, and
// double up to a cap, so a long run allocates one block per ~1.5 MB of
// log. A log longer than the cap gets a block of its own size.
const (
	minLogBlock = 1 << 10
	maxLogBlock = 1 << 16
)

// commitLog is the replay checker's observer (CheckSC): one record per
// committed chunk, in commit order, with each access log copied into the
// log block being filled. The records and their blocks belong to the
// run's Result once it is returned.
type commitLog struct {
	commits []CommitRecord
	block   []chunk.AccessRec
}

// CommitChunk appends ch's commit record.
//
//sim:hotpath
func (l *commitLog) CommitChunk(ch *chunk.Chunk) {
	n := len(ch.Log)
	if cap(l.block)-len(l.block) < n {
		l.newBlock(n)
	}
	start := len(l.block)
	l.block = append(l.block, ch.Log...)
	l.commits = append(l.commits, CommitRecord{
		Proc: ch.Proc, Seq: ch.Seq, CommitOrder: ch.CommitOrder, Executed: ch.Executed,
		Log: l.block[start:len(l.block):len(l.block)],
	})
}

// newBlock starts a fresh log block with room for at least n records.
// The full block is not reused: the records already carved from it stay
// valid for the Result.
func (l *commitLog) newBlock(n int) {
	size := 2 * cap(l.block)
	if size < minLogBlock {
		size = minLogBlock
	}
	if size > maxLogBlock {
		size = maxLogBlock
	}
	if size < n {
		size = n
	}
	l.block = make([]chunk.AccessRec, 0, size)
}

func (*commitLog) Access(int, uint64, bool, mem.Addr, uint64, bool) {}
func (*commitLog) Squash(int, int, int, bool)                       {}
func (*commitLog) PreArb(int)                                       {}

// replayer holds the replay checker's storage: the sequential replay's
// word table and the per-processor last commit order. A machine keeps one
// across runs; verify resets both before every use.
type replayer struct {
	mem  *mem.Memory
	last []uint64 // proc → last commit order seen (0: none yet)
}

// verify replays every committed chunk in global commit order and checks
// that each logged load observed exactly the value the sequential replay
// produces. This validates chunk atomicity, isolation, per-processor
// order, forwarding, squash recovery and the private-data optimizations
// end to end: any hole would surface as a mismatched load. Commits may
// come in any order; a machine's records arrive in commit order, so the
// copy and sort only run for input that is not strictly increasing in
// CommitOrder.
func (r *replayer) verify(commits []CommitRecord) []string {
	if r.mem == nil {
		r.mem = mem.NewMemory()
	}
	r.mem.Reset()
	clear(r.last)
	if !inCommitOrder(commits) {
		sorted := make([]CommitRecord, len(commits))
		copy(sorted, commits)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].CommitOrder < sorted[j].CommitOrder })
		commits = sorted
	}
	var bad []string
	for i := range commits {
		ch := &commits[i]
		for len(r.last) <= ch.Proc {
			r.last = append(r.last, 0)
		}
		if prev := r.last[ch.Proc]; ch.CommitOrder <= prev && prev != 0 {
			bad = append(bad, fmt.Sprintf("proc %d chunk %d committed out of per-processor order", ch.Proc, ch.Seq))
		}
		r.last[ch.Proc] = ch.CommitOrder
		for _, rec := range ch.Log {
			if rec.IsStore {
				r.mem.Store(rec.Addr, rec.Value)
				continue
			}
			if got := r.mem.Load(rec.Addr); got != rec.Value {
				bad = append(bad, fmt.Sprintf(
					"proc %d chunk %d (order %d): load %#x observed %d, replay has %d",
					ch.Proc, ch.Seq, ch.CommitOrder, uint64(rec.Addr), rec.Value, got))
				if len(bad) >= 20 {
					return bad
				}
			}
		}
	}
	return bad
}

// inCommitOrder reports whether commits is strictly increasing in
// CommitOrder, the one order in which sorting would leave it unchanged.
func inCommitOrder(commits []CommitRecord) bool {
	for i := 1; i < len(commits); i++ {
		if commits[i].CommitOrder <= commits[i-1].CommitOrder {
			return false
		}
	}
	return true
}
