package sig

import (
	"testing"

	"bulksc/internal/mem"
)

// FuzzSigOps differentially tests every signature implementation (the
// production Bloom, two Tunable geometries, and Exact) against an exact
// set-of-lines reference model over an arbitrary operation stream.
//
// The contract under fuzz:
//
//   - No false negatives, ever: if the reference model contains a line
//     (or two models share a line), MayContain/Intersects must say so.
//     A false negative is a missed conflict — a silent SC violation in
//     the simulated machine.
//   - CandidateSets is a superset decode: every encoded line's set index
//     must be selected.
//   - Clear restores a genuinely empty signature (the pool-reuse path:
//     chunks recycle signatures in place).
//   - Exact signatures are exact: membership and intersection equal the
//     reference model precisely.
//
// The operation stream encoding: each step consumes 3 bytes — an opcode
// byte and a 2-byte little-endian line operand.
func FuzzSigOps(f *testing.F) {
	// Seed corpus: checked-in files live in testdata/fuzz/FuzzSigOps.
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 1, 0, 3, 0, 0})
	f.Add([]byte{0, 10, 0, 1, 10, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0})
	seq := make([]byte, 0, 300)
	for i := 0; i < 100; i++ {
		seq = append(seq, byte(i%8), byte(i*37), byte(i/3))
	}
	f.Add(seq)

	f.Fuzz(func(t *testing.T, data []byte) {
		impls := []struct {
			name  string
			mk    Factory
			exact bool
		}{
			{"bloom", func() Signature { return NewBloom() }, false},
			{"tunable-default", NewTunableFactory(DefaultGeometry()), false},
			{"tunable-small", NewTunableFactory(Geometry{Banks: 4, BankBits: 512, WindowBits: 12}), false},
			{"exact", func() Signature { return NewExact() }, true},
		}
		for _, im := range impls {
			runSigOps(t, im.name, im.mk, im.exact, data)
		}
	})
}

func runSigOps(t *testing.T, name string, mk Factory, exact bool, data []byte) {
	a, b := mk(), mk()
	modelA := map[mem.Line]bool{}
	modelB := map[mem.Line]bool{}

	modelsIntersect := func() bool {
		for l := range modelA {
			if modelB[l] {
				return true
			}
		}
		return false
	}

	for i := 0; i+2 < len(data); i += 3 {
		op := data[i] % 8
		l := mem.Line(uint16(data[i+1]) | uint16(data[i+2])<<8)
		switch op {
		case 0:
			a.Add(l)
			modelA[l] = true
		case 1:
			b.Add(l)
			modelB[l] = true
		case 2:
			if modelA[l] && !a.MayContain(l) {
				t.Fatalf("%s: false negative: MayContain(%d) = false, line was inserted", name, l)
			}
			if exact && a.MayContain(l) != modelA[l] {
				t.Fatalf("%s: inexact membership for line %d", name, l)
			}
		case 3:
			got := a.Intersects(b)
			want := modelsIntersect()
			if want && !got {
				t.Fatalf("%s: false negative: Intersects = false but models share a line", name)
			}
			if exact && got != want {
				t.Fatalf("%s: inexact intersection: got %v want %v", name, got, want)
			}
		case 4:
			a.UnionWith(b)
			for l := range modelB {
				modelA[l] = true
			}
		case 5:
			a.Clear()
			modelA = map[mem.Line]bool{}
			if !a.Empty() {
				t.Fatalf("%s: not Empty after Clear", name)
			}
		case 6:
			if a.Empty() != (len(modelA) == 0) {
				t.Fatalf("%s: Empty() = %v with %d model lines", name, a.Empty(), len(modelA))
			}
		case 7:
			const nsets = 512 // ≤ BankBits for every tested geometry
			mask := a.CandidateSets(nsets)
			for l := range modelA {
				if !mask.Has(int(uint64(l) & (nsets - 1))) {
					t.Fatalf("%s: CandidateSets dropped set %d of encoded line %d", name, uint64(l)&(nsets-1), l)
				}
			}
		}
	}

	// Post-stream sweep: every model line must still test positive.
	for l := range modelA {
		if !a.MayContain(l) {
			t.Fatalf("%s: final false negative for line %d", name, l)
		}
	}
}
