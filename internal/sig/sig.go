// Package sig implements the hardware address signatures of the Bulk
// architecture (Ceze et al., ISCA 2006) as used by BulkSC.
//
// A signature is a fixed-size superset encoding of a set of cache-line
// addresses. The hardware implementation permutes the address bits and
// accumulates them through a banked Bloom filter: this package models the
// canonical 2 Kbit organization as 2 banks of 1024 bits, with one hash
// function (and therefore one bit) per bank per address — the geometry
// whose false-positive rates at the paper's measured set sizes reproduce
// the paper's aliasing behaviour (≈25% collision rate for the polluted W
// signatures of BSC_base, well under 1% for BSC_dypvt's clean ones).
//
// The primitive operations from the paper's Figure 2(b) are provided:
//
//	∩  Intersects   — could any address be in both signatures?
//	∪  UnionWith    — accumulate another signature
//	=∅ Empty        — has nothing been inserted?
//	∈  MayContain   — membership test for one line
//	δ  CandidateSets— decode into the sets of a set-indexed structure
//
// Because bank 0 hashes the line's low-order bits directly (the identity
// permutation), CandidateSets can decode a signature into cache/directory
// set indices without scanning the whole structure, exactly the "signature
// expansion" operation BulkSC's caches and DirBDM rely on.
//
// An exact (alias-free) implementation backs the paper's BSC_exact
// configuration; both satisfy the Signature interface.
package sig

import (
	"fmt"
	"math/bits"

	"bulksc/internal/lineset"
	"bulksc/internal/mem"
)

// Geometry of the modeled Bloom signature.
const (
	Banks     = 2
	BankBits  = 1024
	BankWords = BankBits / 64
	TotalBits = Banks * BankBits // 2 Kbit, as in the paper
	bankMask  = BankBits - 1
	// CompressedBytes is the on-network size of a signature transfer.
	// The paper states signatures compress to ≈350 bits for communication.
	CompressedBytes = 44
)

// Kind distinguishes signature implementations.
type Kind int

const (
	// KindBloom is the banked Bloom-filter encoding (superset, may alias).
	KindBloom Kind = iota
	// KindExact is the "magic" alias-free encoding used by BSC_exact.
	KindExact
)

func (k Kind) String() string {
	if k == KindExact {
		return "exact"
	}
	return "bloom"
}

// Signature is the common interface of both encodings. Implementations are
// not safe for concurrent use; the simulator is single-threaded.
type Signature interface {
	// Add inserts a line address.
	Add(l mem.Line)
	// MayContain reports whether l may be encoded (∈). Exact signatures
	// never report false positives.
	MayContain(l mem.Line) bool
	// Intersects reports whether some address may be in both signatures
	// (∩ followed by =∅). Both operands must have the same Kind.
	Intersects(other Signature) bool
	// UnionWith accumulates other into the receiver (∪).
	UnionWith(other Signature)
	// Empty reports whether nothing has been inserted (=∅).
	Empty() bool
	// Clear resets the signature to empty.
	Clear()
	// CandidateSets decodes the signature (δ) against a structure with
	// nsets sets indexed by the line's low bits. nsets must be a power of
	// two and at most BankBits. The result is a bitmap with bit i set if
	// set i may hold an encoded line.
	CandidateSets(nsets int) SetMask
	// TransferBytes is the size charged to the network for shipping this
	// signature.
	TransferBytes() int
	// Kind identifies the implementation.
	Kind() Kind
}

// SetMask is a bitmap over up to BankBits set indices.
type SetMask [BankWords]uint64

// Has reports whether set idx is selected.
func (m *SetMask) Has(idx int) bool { return m[idx>>6]&(1<<(uint(idx)&63)) != 0 }

func (m *SetMask) set(idx int) { m[idx>>6] |= 1 << (uint(idx) & 63) }

// Count returns the number of selected sets.
func (m *SetMask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Factory creates fresh signatures of a fixed kind. All components of one
// simulated system must share a factory so signatures stay comparable.
type Factory func() Signature

// NewFactory returns a Factory for the given kind.
func NewFactory(k Kind) Factory {
	if k == KindExact {
		return func() Signature { return NewExact() }
	}
	return func() Signature { return NewBloom() }
}

// ---------------------------------------------------------------------------
// Bloom implementation
// ---------------------------------------------------------------------------

// Bloom is the banked Bloom-filter signature. The zero value is an empty
// signature ready for use.
//
// Alongside the bit banks it caches a per-bank nonempty-word summary (bit
// w of sum[b] set iff banks[b][w] != 0). Intersects and UnionWith walk
// only the words the summary selects, so the arbiter's W-list scan — the
// hottest signature consumer — short-circuits disjoint signatures after a
// single 16-bit AND per bank instead of 16 word ANDs.
type Bloom struct {
	banks [Banks][BankWords]uint64
	sum   [Banks]uint16 // nonempty-word summary, one bit per bank word
	n     int           // insert count; only zero vs nonzero is read
}

// NewBloom returns an empty Bloom signature.
func NewBloom() *Bloom { return &Bloom{} }

// hashWindowBits is the number of line-address bits the signature encodes.
// Like the hardware scheme in the Bulk paper, the permutation draws each
// bank's index from bit-fields of a finite window of the (permuted)
// address: lines that differ only above the window alias completely. With
// a 16-bit window (2 MB of 32 B lines), applications whose shared
// structures exceed the window — radix's large scattered arrays, the
// commercial codes' big footprints — suffer genuine signature aliasing,
// while small-footprint applications see almost none. This reproduces the
// aliasing structure the paper's evaluation depends on.
const hashWindowBits = 16

// bankHash returns the bit position of line l within bank b. Bank 0 uses
// the identity on the low-order line bits so that δ decoding into cache or
// directory sets is possible; bank 1 uses the upper field of the address
// window, so together the banks encode the whole window.
func bankHash(b int, l mem.Line) uint32 {
	x := uint32(l) & (1<<hashWindowBits - 1)
	if b == 0 {
		return x & bankMask
	}
	return (x >> 6) & bankMask
}

// Add inserts line l, setting one bit in each bank.
//
//sim:hotpath
func (s *Bloom) Add(l mem.Line) {
	for b := 0; b < Banks; b++ {
		h := bankHash(b, l)
		s.banks[b][h>>6] |= 1 << (h & 63)
		s.sum[b] |= 1 << (h >> 6)
	}
	s.n++
}

// MayContain reports whether l's bit is set in every bank.
//
//sim:hotpath
func (s *Bloom) MayContain(l mem.Line) bool {
	for b := 0; b < Banks; b++ {
		h := bankHash(b, l)
		if s.banks[b][h>>6]&(1<<(h&63)) == 0 {
			return false
		}
	}
	return true
}

// Intersects ANDs the two signatures bank-wise. A genuine common address
// contributes one bit in every bank of the AND, so the signatures may share
// an address only if the AND is non-empty in every bank. This banked rule
// is what gives the encoding its realistic (non-negligible, occupancy-
// dependent) aliasing rate.
//
//sim:hotpath
func (s *Bloom) Intersects(other Signature) bool {
	o, ok := other.(*Bloom)
	if !ok {
		panic(fmt.Sprintf("sig: intersecting bloom with %T", other))
	}
	if s.n == 0 || o.n == 0 {
		return false
	}
	for b := 0; b < Banks; b++ {
		// Word-level fast path: only words nonempty in BOTH operands can
		// contribute to the AND; if no such word exists the bank's AND is
		// empty and the signatures cannot share an address.
		m := s.sum[b] & o.sum[b]
		if m == 0 {
			return false
		}
		hit := false
		for ; m != 0; m &= m - 1 {
			w := bits.TrailingZeros16(m)
			if s.banks[b][w]&o.banks[b][w] != 0 {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// UnionWith ORs other into s, touching only other's nonempty words.
//
//sim:hotpath
func (s *Bloom) UnionWith(other Signature) {
	o, ok := other.(*Bloom)
	if !ok {
		panic(fmt.Sprintf("sig: union of bloom with %T", other))
	}
	for b := 0; b < Banks; b++ {
		for m := o.sum[b]; m != 0; m &= m - 1 {
			w := bits.TrailingZeros16(m)
			s.banks[b][w] |= o.banks[b][w]
		}
		s.sum[b] |= o.sum[b]
	}
	s.n += o.n
}

// Empty reports whether nothing was inserted.
func (s *Bloom) Empty() bool { return s.n == 0 }

// Clear resets to empty.
//
//sim:hotpath
func (s *Bloom) Clear() { *s = Bloom{} }

// CandidateSets decodes bank 0. Because bank 0's hash is the identity on
// the low 9 line bits and a structure's set index is the low log2(nsets)
// line bits, a set is a candidate iff any of its aliasing bank-0 positions
// is set.
//
//sim:hotpath
func (s *Bloom) CandidateSets(nsets int) SetMask {
	if nsets <= 0 || nsets > BankBits || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("sig: CandidateSets with nsets=%d", nsets))
	}
	var m SetMask
	for mw := s.sum[0]; mw != 0; mw &= mw - 1 {
		wi := bits.TrailingZeros16(mw)
		for word := s.banks[0][wi]; word != 0; word &= word - 1 {
			p := wi<<6 + bits.TrailingZeros64(word)
			m.set(p & (nsets - 1))
		}
	}
	return m
}

// TransferBytes returns the compressed on-network size.
func (s *Bloom) TransferBytes() int { return CompressedBytes }

// Kind returns KindBloom.
func (s *Bloom) Kind() Kind { return KindBloom }

// ---------------------------------------------------------------------------
// Exact implementation
// ---------------------------------------------------------------------------

// Exact is the alias-free signature used for the BSC_exact configuration:
// an open-addressed set of lines with the same interface and the same
// modeled transfer cost. The lineset backing makes Clear() an in-place
// reset, so pooled chunks recycle exact signatures without reallocation.
type Exact struct {
	lines lineset.Set
}

// NewExact returns an empty exact signature.
func NewExact() *Exact { return &Exact{} }

// Add inserts line l.
func (s *Exact) Add(l mem.Line) { s.lines.Add(l) }

// MayContain is exact membership.
func (s *Exact) MayContain(l mem.Line) bool { return s.lines.Has(l) }

// Intersects is exact set intersection non-emptiness.
func (s *Exact) Intersects(other Signature) bool {
	o, ok := other.(*Exact)
	if !ok {
		panic(fmt.Sprintf("sig: intersecting exact with %T", other))
	}
	a, b := &s.lines, &o.lines
	if b.Len() < a.Len() {
		a, b = b, a
	}
	hit := false
	a.ForEach(func(l mem.Line) {
		if !hit && b.Has(l) {
			hit = true
		}
	})
	return hit
}

// UnionWith inserts all of other's lines.
func (s *Exact) UnionWith(other Signature) {
	o, ok := other.(*Exact)
	if !ok {
		panic(fmt.Sprintf("sig: union of exact with %T", other))
	}
	o.lines.ForEach(func(l mem.Line) { s.lines.Add(l) })
}

// Empty reports whether the set is empty.
func (s *Exact) Empty() bool { return s.lines.Len() == 0 }

// Clear resets the set in place.
func (s *Exact) Clear() { s.lines.Reset() }

// CandidateSets selects exactly the sets of the encoded lines.
func (s *Exact) CandidateSets(nsets int) SetMask {
	if nsets <= 0 || nsets > BankBits || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("sig: CandidateSets with nsets=%d", nsets))
	}
	var m SetMask
	s.lines.ForEach(func(l mem.Line) { m.set(int(uint64(l) & uint64(nsets-1))) })
	return m
}

// TransferBytes matches the Bloom cost: BSC_exact isolates aliasing
// effects, not transfer-size effects.
func (s *Exact) TransferBytes() int { return CompressedBytes }

// Kind returns KindExact.
func (s *Exact) Kind() Kind { return KindExact }
