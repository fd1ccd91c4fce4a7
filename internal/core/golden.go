package core

import (
	"math/bits"
	"sort"
)

// DeterminismHash folds a run's observable outcome into one 64-bit value.
// It covers everything the paper's artifacts are computed from — final and
// per-processor cycle counts, chunk/squash/commit counters, traffic bytes,
// directory activity, replay-checker verdicts and, when the run collected
// them, the complete committed access logs in global commit order.
//
// The hash is the contract that gates performance work: any rewrite of the
// engine, the signatures, the chunk state or the directory must leave every
// seed-fixed run's hash bit-identical. Internal representation changes
// (pooling, open addressing, heap layout) do not appear in the hash;
// behavioral changes do.
func (r *Result) DeterminismHash() uint64 {
	h := newHasher()
	h.u64(r.Cycles)
	h.u64(uint64(len(r.PerProc)))
	for _, c := range r.PerProc {
		h.u64(c)
	}
	st := r.Stats
	h.u64(st.Chunks)
	h.u64(st.Squashes)
	h.u64(st.SquashesTrue)
	h.u64(st.SquashesAliased)
	h.u64(st.SquashCascades)
	h.u64(st.CommittedInstrs)
	h.u64(st.SquashedInstrs)
	h.u64(st.TotalTraffic())
	h.u64(st.CommitRequests)
	h.u64(st.CommitGrants)
	h.u64(st.CommitDenies)
	h.u64(st.EmptyWCommits)
	h.u64(st.RSigRequired)
	h.u64(st.DirCommits)
	h.u64(st.DirLookups)
	h.u64(st.DirUpdates)
	h.u64(st.L1Hits)
	h.u64(st.L1Misses)
	h.u64(st.L2Hits)
	h.u64(st.L2Misses)
	h.u64(st.CacheInvs)
	h.u64(st.ExtraCacheInvs)
	h.u64(st.Writebacks)
	h.u64(uint64(len(r.SCViolations)))
	h.u64(uint64(r.ChunksChecked))
	// Full committed access history, in global commit order. This is the
	// strongest part of the contract: every load value and store value of
	// every committed chunk must be reproduced exactly. Commits usually
	// arrive in commit order already, and then need no sort.
	if inCommitOrder(r.Commits) {
		for i := range r.Commits {
			h.commit(&r.Commits[i])
		}
	} else {
		sorted := make([]int, len(r.Commits))
		for i := range sorted {
			sorted[i] = i
		}
		sort.Slice(sorted, func(a, b int) bool {
			return r.Commits[sorted[a]].CommitOrder < r.Commits[sorted[b]].CommitOrder
		})
		for _, i := range sorted {
			h.commit(&r.Commits[i])
		}
	}
	return h.sum
}

// commit folds one committed chunk and its access log.
func (h *hasher) commit(ch *CommitRecord) {
	h.u64(uint64(ch.Proc))
	h.u64(ch.Seq)
	h.u64(ch.CommitOrder)
	h.u64(uint64(ch.Executed))
	for _, rec := range ch.Log {
		if rec.IsStore {
			h.u64(1)
		} else {
			h.u64(0)
		}
		h.u64(uint64(rec.Addr))
		h.u64(rec.Value)
	}
}

// WitnessHash folds the online SC-witness checker's observations into one
// 64-bit value: how many chunks and accesses the checker audited, and the
// exact text of every violation it reported. It deliberately lives OUTSIDE
// DeterminismHash — the witness is diagnostic instrumentation layered on
// top of the simulated machine, and this hash pins that instrumentation
// separately, so a checker regression (dropped audits, reworded or lost
// findings) is caught even when the machine's own behavior is unchanged.
func (r *Result) WitnessHash() uint64 {
	h := newHasher()
	h.u64(uint64(r.WitnessChunks))
	h.u64(r.WitnessAccesses)
	h.u64(uint64(len(r.WitnessViolations)))
	for _, v := range r.WitnessViolations {
		h.str(v)
	}
	return h.sum
}

// hasher is FNV-1a over little-endian u64 words, inlined to avoid pulling
// hash/fnv + encoding/binary into the hot determinism check.
type hasher struct{ sum uint64 }

// fnvPrime is FNV-1a's 64-bit multiplier.
const fnvPrime = 1099511628211

// zeroFold[k] is fnvPrime^k mod 2^64: folding a zero byte is a bare
// multiply by the prime, so folding k zero bytes is one multiply by this.
var zeroFold = func() (t [9]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * fnvPrime
	}
	return t
}()

func newHasher() *hasher { return &hasher{sum: 14695981039346656037} }

// u64 folds v's eight little-endian bytes. Only the significant low bytes
// are folded one at a time; the zero high bytes all fold at once through
// zeroFold, which gives the byte-serial value mod 2^64.
func (h *hasher) u64(v uint64) {
	n := (bits.Len64(v) + 7) >> 3
	sum := h.sum
	for i := 0; i < n; i++ {
		sum ^= v & 0xff
		sum *= fnvPrime
		v >>= 8
	}
	h.sum = sum * zeroFold[8-n]
}

// str folds a string byte-by-byte, length-prefixed so that concatenation
// ambiguity between adjacent strings cannot produce hash collisions.
func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.sum ^= uint64(s[i])
		h.sum *= fnvPrime
	}
}
