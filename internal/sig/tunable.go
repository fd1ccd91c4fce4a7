package sig

import (
	"fmt"
	"math/bits"

	"bulksc/internal/mem"
)

// Geometry parameterizes a Bloom signature, opening the design space the
// paper's §6 points at ("there is a large unexplored design space of
// signature size and encoding"): bank count, bits per bank, and the
// address window the hash draws from. The fixed Bloom type is the
// production 2×1024 instance; Tunable signatures trade a little speed for
// configurability and back the signature-geometry ablation experiment.
type Geometry struct {
	// Banks is the number of banks (one bit set per bank per address).
	Banks int
	// BankBits is the size of each bank; a power of two ≥ 512 so that
	// δ-decoding into cache/directory sets still works off bank 0.
	BankBits int
	// WindowBits is how many low-order line-address bits the hash
	// encodes; lines apart by a multiple of 2^WindowBits alias fully.
	WindowBits int
}

// DefaultGeometry is the production configuration (2 Kbit total).
func DefaultGeometry() Geometry { return Geometry{Banks: 2, BankBits: 1024, WindowBits: 16} }

// TotalBits returns the signature size this geometry implies.
func (g Geometry) TotalBits() int { return g.Banks * g.BankBits }

// Valid reports whether the geometry is usable.
func (g Geometry) Valid() error {
	switch {
	case g.Banks < 1 || g.Banks > 8:
		return fmt.Errorf("sig: %d banks unsupported", g.Banks)
	case g.BankBits < 512 || g.BankBits&(g.BankBits-1) != 0:
		return fmt.Errorf("sig: bank size %d must be a power of two ≥ 512", g.BankBits)
	case g.WindowBits < 10 || g.WindowBits > 30:
		return fmt.Errorf("sig: window of %d bits unsupported", g.WindowBits)
	}
	return nil
}

func (g Geometry) String() string {
	return fmt.Sprintf("%dx%db/w%d", g.Banks, g.BankBits, g.WindowBits)
}

// hash returns the bit index in bank b for line l: bank 0 is the identity
// on the low bits (for δ decoding); higher banks take staggered bit fields
// of the address window, like the hardware permutation.
func (g Geometry) hash(b int, l mem.Line) int {
	x := uint64(l) & (1<<uint(g.WindowBits) - 1)
	if b > 0 {
		// Spread the banks' bit-fields evenly so their union covers the
		// window; with the default geometry this reduces to the
		// production hash (bank 1 at shift 6).
		bankSpan := bits.Len(uint(g.BankBits - 1))
		stride := (g.WindowBits - bankSpan) / (g.Banks - 1)
		if stride < 1 {
			stride = 1
		}
		x >>= uint(b * stride)
	}
	return int(x) & (g.BankBits - 1)
}

// Tunable is a Bloom signature with run-time geometry.
type Tunable struct {
	g     Geometry
	banks [][]uint64
	n     int
}

// NewTunable returns an empty signature with geometry g (which must be
// Valid).
func NewTunable(g Geometry) *Tunable {
	if err := g.Valid(); err != nil {
		panic(err)
	}
	banks := make([][]uint64, g.Banks)
	for i := range banks {
		banks[i] = make([]uint64, g.BankBits/64)
	}
	return &Tunable{g: g, banks: banks}
}

// NewTunableFactory returns a Factory producing Tunable signatures.
func NewTunableFactory(g Geometry) Factory {
	if err := g.Valid(); err != nil {
		panic(err)
	}
	return func() Signature { return NewTunable(g) }
}

// Add inserts line l.
func (s *Tunable) Add(l mem.Line) {
	for b := 0; b < s.g.Banks; b++ {
		h := s.g.hash(b, l)
		s.banks[b][h>>6] |= 1 << (uint(h) & 63)
	}
	s.n++
}

// MayContain is the ∈ operation.
func (s *Tunable) MayContain(l mem.Line) bool {
	for b := 0; b < s.g.Banks; b++ {
		h := s.g.hash(b, l)
		if s.banks[b][h>>6]&(1<<(uint(h)&63)) == 0 {
			return false
		}
	}
	return true
}

// Intersects is the ∩/=∅ collision test (AND non-empty in every bank).
func (s *Tunable) Intersects(other Signature) bool {
	o, ok := other.(*Tunable)
	if !ok || o.g != s.g {
		panic("sig: intersecting tunable signatures of different geometry")
	}
	if s.n == 0 || o.n == 0 {
		return false
	}
	for b := 0; b < s.g.Banks; b++ {
		var any uint64
		for w := range s.banks[b] {
			any |= s.banks[b][w] & o.banks[b][w]
		}
		if any == 0 {
			return false
		}
	}
	return true
}

// UnionWith ORs other into s.
func (s *Tunable) UnionWith(other Signature) {
	o, ok := other.(*Tunable)
	if !ok || o.g != s.g {
		panic("sig: union of tunable signatures of different geometry")
	}
	for b := 0; b < s.g.Banks; b++ {
		for w := range s.banks[b] {
			s.banks[b][w] |= o.banks[b][w]
		}
	}
	s.n += o.n
}

// Empty reports no insertions.
func (s *Tunable) Empty() bool { return s.n == 0 }

// Clear resets.
func (s *Tunable) Clear() {
	for b := range s.banks {
		for w := range s.banks[b] {
			s.banks[b][w] = 0
		}
	}
	s.n = 0
}

// CandidateSets decodes bank 0 into set indices.
func (s *Tunable) CandidateSets(nsets int) SetMask {
	if nsets <= 0 || nsets > BankBits || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("sig: CandidateSets with nsets=%d", nsets))
	}
	var m SetMask
	for p := 0; p < s.g.BankBits; p++ {
		if s.banks[0][p>>6]&(1<<(uint(p)&63)) != 0 {
			m.set(p & (nsets - 1))
		}
	}
	return m
}

// TransferBytes scales the compressed transfer with the geometry relative
// to the production 2 Kbit instance.
func (s *Tunable) TransferBytes() int {
	b := CompressedBytes * s.g.TotalBits() / 2048
	if b < 8 {
		b = 8
	}
	return b
}

// Kind reports KindBloom (tunable signatures are a Bloom variant).
func (s *Tunable) Kind() Kind { return KindBloom }
