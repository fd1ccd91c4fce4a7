// Package stats collects every counter behind the paper's evaluation
// artifacts: Figure 9/10 (performance), Table 3 (BulkSC characterization),
// Table 4 (commit & coherence characterization) and Figure 11 (network
// traffic by message category).
//
// One Stats instance is shared by all components of a simulated system.
// Raw counters are exported fields, updated directly by the component that
// owns the event; derived metrics (averages, percentages, rates per 1k
// commits) are computed by methods so tests can check both layers.
package stats

import "fmt"

// Category classifies network traffic, matching Figure 11's breakdown.
type Category int

const (
	// CatData covers demand reads/writes, data replies and writebacks
	// ("Rd/Wr" in Figure 11).
	CatData Category = iota
	// CatRdSig covers R-signature transfers.
	CatRdSig
	// CatWrSig covers W-signature transfers (commit requests and
	// directory-to-cache forwards).
	CatWrSig
	// CatInv covers invalidation requests and acknowledgements.
	CatInv
	// CatOther covers everything else (grants, denies, done messages,
	// NACKs, arbitration control).
	CatOther
	numCategories
)

// String returns the Figure 11 label.
func (c Category) String() string {
	switch c {
	case CatData:
		return "Rd/Wr"
	case CatRdSig:
		return "RdSig"
	case CatWrSig:
		return "WrSig"
	case CatInv:
		return "Inv"
	default:
		return "Other"
	}
}

// Categories lists all traffic categories in display order.
func Categories() []Category {
	return []Category{CatData, CatRdSig, CatWrSig, CatInv, CatOther}
}

// Stats is the shared counter block for one simulated system.
//
// Stats carries running time-weighted integrals (the W-list fields below)
// whose correctness depends on a single instance advancing monotonically;
// a struct copy goes stale the moment the original is next updated, which
// is how the pre-PR-2 ">100% NonEmptyWListPct" bug happened. The simlint
// statsnapshot pass therefore forbids by-value copies outside this
// package — share *Stats, and take deliberate copies only via Snapshot.
//
//sim:accumulator
type Stats struct {
	// --- progress / performance -----------------------------------------
	Cycles          uint64 // total cycles to run the workload
	CommittedInstrs uint64 // instructions whose effects committed
	SquashedInstrs  uint64 // instructions executed then discarded
	SpinInstrs      uint64 // dynamic spin-loop iterations (diagnostic)

	// --- chunks (BulkSC only) -------------------------------------------
	Chunks           uint64 // chunks committed
	Squashes         uint64 // chunk squashes (any cause)
	SquashesTrue     uint64 // squashes with a genuine line conflict
	SquashesAliased  uint64 // squashes caused purely by signature aliasing
	SquashCascades   uint64 // successor chunks squashed with a predecessor
	ChunkShrinks     uint64 // forward-progress chunk-size reductions
	PreArbitrations  uint64 // forward-progress pre-arbitration episodes
	SetOverflowCuts  uint64 // chunks ended early by cache-set pressure
	SumRSetLines     uint64 // Σ exact R-set sizes at commit (lines)
	SumWSetLines     uint64 // Σ exact W-set sizes at commit (lines)
	SumPrivWSetLines uint64 // Σ exact private-write-set sizes at commit
	SpecWriteDispl   uint64 // displacement attempts on spec-written lines
	SpecReadDispl    uint64 // displacements of speculatively read lines
	PrivBufSupplies  uint64 // lines supplied from the private buffer
	PrivBufOverflows uint64 // private-buffer overflow writebacks
	PrivBufRestores  uint64 // lines restored from private buffer on squash
	ExtraCacheInvs   uint64 // bulk invalidations of lines not truly written
	CacheInvs        uint64 // bulk invalidations of truly written lines
	ReadBounces      uint64 // demand reads bounced by a commit-in-progress

	// --- arbiter ----------------------------------------------------------
	CommitRequests    uint64 // permission-to-commit requests received
	CommitGrants      uint64
	CommitDenies      uint64
	CommitCancels     uint64 // grants abandoned because the chunk squashed
	EmptyWCommits     uint64 // commits whose W signature was empty
	RSigRequired      uint64 // commits that needed the R signature fetched
	wListIntegral     uint64 // Σ (pending Ws × cycles) for time-averaging
	wListNonEmptyTime uint64 // cycles with a non-empty W list
	wListLastChange   uint64 // internal: last integral update time
	wListCurrent      int    // internal: current pending count
	statWindowStart   uint64 // cycle the measurement window opened
	GArbTransactions  uint64 // commits that needed the global arbiter
	MultiArbCommits   uint64 // commits spanning multiple arbiter ranges
	GArbQueued        uint64 // transactions parked at a full G-arbiter shard
	GArbQueueCycles   uint64 // total cycles transactions spent queued

	// --- directory --------------------------------------------------------
	DirLookups        uint64 // entries examined during signature expansion
	DirUnnecessary    uint64 // examined entries not truly written (aliasing)
	DirUpdates        uint64 // entries whose state changed on commit
	DirBadUpdates     uint64 // state changes on not-truly-written entries
	WSigNodeSends     uint64 // Σ caches that received a forwarded W sig
	DirCommits        uint64 // W signatures processed by directories
	DirCacheEvicts    uint64 // directory-cache entry displacements
	ConvInvalidations uint64 // conventional-protocol invalidations sent

	// --- caches -----------------------------------------------------------
	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64 // L2 miss = memory access
	Writebacks       uint64
	Prefetches       uint64 // SC/RC read/exclusive prefetches issued

	// --- SC++ -------------------------------------------------------------
	SHiQViolations uint64 // SC++ rollbacks
	SHiQStalls     uint64 // cycles stalled on SHiQ capacity

	// --- traffic ----------------------------------------------------------
	TrafficBytes [numCategories]uint64
	Messages     [numCategories]uint64
}

// New returns a zeroed Stats.
func New() *Stats { return &Stats{} }

// Reset zeroes every counter in place so a warm machine reuse
// (core.Runner) starts the next run from the exact state a fresh New()
// would provide. It lives in this package because Stats is a
// //sim:accumulator: the statsnapshot pass forbids struct copies (and so
// also `*s = Stats{}` idioms routed through helper copies) outside the
// package. Every field is zeroed explicitly so the poolhygiene pass can
// verify coverage field by field — a counter added to Stats without a
// matching line here is a lint error, not a silent cross-run leak.
func (s *Stats) Reset() {
	s.Cycles = 0
	s.CommittedInstrs = 0
	s.SquashedInstrs = 0
	s.SpinInstrs = 0
	s.Chunks = 0
	s.Squashes = 0
	s.SquashesTrue = 0
	s.SquashesAliased = 0
	s.SquashCascades = 0
	s.ChunkShrinks = 0
	s.PreArbitrations = 0
	s.SetOverflowCuts = 0
	s.SumRSetLines = 0
	s.SumWSetLines = 0
	s.SumPrivWSetLines = 0
	s.SpecWriteDispl = 0
	s.SpecReadDispl = 0
	s.PrivBufSupplies = 0
	s.PrivBufOverflows = 0
	s.PrivBufRestores = 0
	s.ExtraCacheInvs = 0
	s.CacheInvs = 0
	s.ReadBounces = 0
	s.CommitRequests = 0
	s.CommitGrants = 0
	s.CommitDenies = 0
	s.CommitCancels = 0
	s.EmptyWCommits = 0
	s.RSigRequired = 0
	s.wListIntegral = 0
	s.wListNonEmptyTime = 0
	s.wListLastChange = 0
	s.wListCurrent = 0
	s.statWindowStart = 0
	s.GArbTransactions = 0
	s.MultiArbCommits = 0
	s.GArbQueued = 0
	s.GArbQueueCycles = 0
	s.DirLookups = 0
	s.DirUnnecessary = 0
	s.DirUpdates = 0
	s.DirBadUpdates = 0
	s.WSigNodeSends = 0
	s.DirCommits = 0
	s.DirCacheEvicts = 0
	s.ConvInvalidations = 0
	s.L1Hits = 0
	s.L1Misses = 0
	s.L2Hits = 0
	s.L2Misses = 0
	s.Writebacks = 0
	s.Prefetches = 0
	s.SHiQViolations = 0
	s.SHiQStalls = 0
	s.TrafficBytes = [numCategories]uint64{}
	s.Messages = [numCategories]uint64{}
}

// Snapshot returns a copy of the current counters, for warmup exclusion.
func (s *Stats) Snapshot() Stats {
	return *s
}

// SubtractBase removes a warmup-time snapshot from the counters so every
// derived metric describes only the post-warmup window. warmupCycle is the
// time the snapshot was taken.
func (s *Stats) SubtractBase(b *Stats, warmupCycle uint64) {
	s.CommittedInstrs -= b.CommittedInstrs
	s.SquashedInstrs -= b.SquashedInstrs
	s.SpinInstrs -= b.SpinInstrs
	s.Chunks -= b.Chunks
	s.Squashes -= b.Squashes
	s.SquashesTrue -= b.SquashesTrue
	s.SquashesAliased -= b.SquashesAliased
	s.SquashCascades -= b.SquashCascades
	s.ChunkShrinks -= b.ChunkShrinks
	s.PreArbitrations -= b.PreArbitrations
	s.SetOverflowCuts -= b.SetOverflowCuts
	s.SumRSetLines -= b.SumRSetLines
	s.SumWSetLines -= b.SumWSetLines
	s.SumPrivWSetLines -= b.SumPrivWSetLines
	s.SpecWriteDispl -= b.SpecWriteDispl
	s.SpecReadDispl -= b.SpecReadDispl
	s.PrivBufSupplies -= b.PrivBufSupplies
	s.PrivBufOverflows -= b.PrivBufOverflows
	s.PrivBufRestores -= b.PrivBufRestores
	s.ExtraCacheInvs -= b.ExtraCacheInvs
	s.CacheInvs -= b.CacheInvs
	s.ReadBounces -= b.ReadBounces
	s.CommitRequests -= b.CommitRequests
	s.CommitGrants -= b.CommitGrants
	s.CommitDenies -= b.CommitDenies
	s.CommitCancels -= b.CommitCancels
	s.EmptyWCommits -= b.EmptyWCommits
	s.RSigRequired -= b.RSigRequired
	// The W-list integrals must be rolled forward to warmupCycle before
	// subtraction: the snapshot's last update (wListLastChange) may predate
	// the window open, and the pending-W time accumulated between that
	// update and warmupCycle belongs to the warmup, not the measurement
	// window. Subtracting the raw snapshot misattributes it and skews
	// Table 4's "# of Pend. W Sigs" and "Non-Empty W List".
	baseIntegral := b.wListIntegral
	baseNonEmpty := b.wListNonEmptyTime
	if warmupCycle > b.wListLastChange {
		dt := warmupCycle - b.wListLastChange
		baseIntegral += uint64(b.wListCurrent) * dt
		if b.wListCurrent > 0 {
			baseNonEmpty += dt
		}
	}
	s.wListIntegral -= baseIntegral
	s.wListNonEmptyTime -= baseNonEmpty
	s.statWindowStart = warmupCycle
	s.GArbTransactions -= b.GArbTransactions
	s.MultiArbCommits -= b.MultiArbCommits
	s.GArbQueued -= b.GArbQueued
	s.GArbQueueCycles -= b.GArbQueueCycles
	s.DirLookups -= b.DirLookups
	s.DirUnnecessary -= b.DirUnnecessary
	s.DirUpdates -= b.DirUpdates
	s.DirBadUpdates -= b.DirBadUpdates
	s.WSigNodeSends -= b.WSigNodeSends
	s.DirCommits -= b.DirCommits
	s.DirCacheEvicts -= b.DirCacheEvicts
	s.ConvInvalidations -= b.ConvInvalidations
	s.L1Hits -= b.L1Hits
	s.L1Misses -= b.L1Misses
	s.L2Hits -= b.L2Hits
	s.L2Misses -= b.L2Misses
	s.Writebacks -= b.Writebacks
	s.Prefetches -= b.Prefetches
	s.SHiQViolations -= b.SHiQViolations
	s.SHiQStalls -= b.SHiQStalls
	for i := range s.TrafficBytes {
		s.TrafficBytes[i] -= b.TrafficBytes[i]
		s.Messages[i] -= b.Messages[i]
	}
}

// AddTraffic records one message of b bytes in category c.
func (s *Stats) AddTraffic(c Category, b int) {
	s.TrafficBytes[c] += uint64(b)
	s.Messages[c]++
}

// TotalTraffic returns the sum of all categories, in bytes.
func (s *Stats) TotalTraffic() uint64 {
	var t uint64
	for _, b := range s.TrafficBytes {
		t += b
	}
	return t
}

// WListChanged must be called by the arbiter whenever its pending-W count
// changes, with the current time and the new count. It maintains the
// integrals behind Table 4's "# of Pend. W Sigs" and "Non-Empty W List".
func (s *Stats) WListChanged(now uint64, count int) {
	dt := now - s.wListLastChange
	s.wListIntegral += uint64(s.wListCurrent) * dt
	if s.wListCurrent > 0 {
		s.wListNonEmptyTime += dt
	}
	s.wListLastChange = now
	s.wListCurrent = count
}

// CloseWList finalizes the time-weighted arbiter integrals at end of run.
func (s *Stats) CloseWList(now uint64) { s.WListChanged(now, s.wListCurrent) }

// --- Derived metrics (the actual table cells) ---------------------------

// SquashedPct is Table 3 "Squashed Instructions (%)".
func (s *Stats) SquashedPct() float64 {
	total := s.CommittedInstrs + s.SquashedInstrs
	if total == 0 {
		return 0
	}
	return 100 * float64(s.SquashedInstrs) / float64(total)
}

// AvgReadSet, AvgWriteSet, AvgPrivWriteSet are Table 3 "Average Set Sizes".
func (s *Stats) AvgReadSet() float64      { return perChunk(s.SumRSetLines, s.Chunks) }
func (s *Stats) AvgWriteSet() float64     { return perChunk(s.SumWSetLines, s.Chunks) }
func (s *Stats) AvgPrivWriteSet() float64 { return perChunk(s.SumPrivWSetLines, s.Chunks) }

func perChunk(sum, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// SpecWriteDisplPer100k and SpecReadDisplPer100k are Table 3
// "Spec. Line Displacements (Per 100k Commits)".
func (s *Stats) SpecWriteDisplPer100k() float64 { return rate(s.SpecWriteDispl, s.Chunks, 100_000) }
func (s *Stats) SpecReadDisplPer100k() float64  { return rate(s.SpecReadDispl, s.Chunks, 100_000) }

// PrivBufPer1k is Table 3 "Data from Priv. Buff. (Per 1k Comm.)".
func (s *Stats) PrivBufPer1k() float64 { return rate(s.PrivBufSupplies, s.Chunks, 1000) }

// ExtraInvsPer1k is Table 3 "# of Extra Cache Invs. (Per 1k Comm.)".
func (s *Stats) ExtraInvsPer1k() float64 { return rate(s.ExtraCacheInvs, s.Chunks, 1000) }

func rate(events, commits uint64, per float64) float64 {
	if commits == 0 {
		return 0
	}
	return per * float64(events) / float64(commits)
}

// LookupsPerCommit is Table 4 "Lookups per Commit".
func (s *Stats) LookupsPerCommit() float64 { return perChunk(s.DirLookups, s.DirCommits) }

// UnnecessaryLookupPct is Table 4 "Unnecessary Lookups (%)".
func (s *Stats) UnnecessaryLookupPct() float64 { return pct(s.DirUnnecessary, s.DirLookups) }

// UnnecessaryUpdatePct is Table 4 "Unnecessary Updates (%)".
func (s *Stats) UnnecessaryUpdatePct() float64 { return pct(s.DirBadUpdates, s.DirUpdates) }

// NodesPerWSig is Table 4 "Nodes per W Sig.".
func (s *Stats) NodesPerWSig() float64 { return perChunk(s.WSigNodeSends, s.DirCommits) }

// AvgPendingWSigs is Table 4 "# of Pend. W Sigs." (time average).
func (s *Stats) AvgPendingWSigs() float64 {
	if s.wListLastChange <= s.statWindowStart {
		return 0
	}
	return float64(s.wListIntegral) / float64(s.wListLastChange-s.statWindowStart)
}

// NonEmptyWListPct is Table 4 "Non-Empty W List (% Time)".
func (s *Stats) NonEmptyWListPct() float64 {
	if s.wListLastChange <= s.statWindowStart {
		return 0
	}
	return 100 * float64(s.wListNonEmptyTime) / float64(s.wListLastChange-s.statWindowStart)
}

// RSigRequiredPct is Table 4 "R Sig. Required (% Commits)".
func (s *Stats) RSigRequiredPct() float64 { return pct(s.RSigRequired, s.Chunks) }

// EmptyWSigPct is Table 4 "Empty W Sig. (% Commits)".
func (s *Stats) EmptyWSigPct() float64 { return pct(s.EmptyWCommits, s.Chunks) }

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// String summarizes the headline counters, for debugging output.
func (s *Stats) String() string {
	return fmt.Sprintf("cycles=%d committed=%d squashed=%.2f%% chunks=%d squashes=%d traffic=%dB",
		s.Cycles, s.CommittedInstrs, s.SquashedPct(), s.Chunks, s.Squashes, s.TotalTraffic())
}
