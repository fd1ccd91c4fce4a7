package sig

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bulksc/internal/mem"
)

func kinds() []Kind { return []Kind{KindBloom, KindExact} }

func TestAddThenMayContain(t *testing.T) {
	for _, k := range kinds() {
		s := NewFactory(k)()
		for i := 0; i < 100; i++ {
			l := mem.Line(i * 17)
			s.Add(l)
			if !s.MayContain(l) {
				t.Fatalf("%v: line %v not contained after Add", k, l)
			}
		}
	}
}

func TestEmptyAndClear(t *testing.T) {
	for _, k := range kinds() {
		s := NewFactory(k)()
		if !s.Empty() {
			t.Fatalf("%v: fresh signature not empty", k)
		}
		s.Add(5)
		if s.Empty() {
			t.Fatalf("%v: signature empty after Add", k)
		}
		s.Clear()
		if !s.Empty() {
			t.Fatalf("%v: signature not empty after Clear", k)
		}
		if s.MayContain(5) {
			t.Fatalf("%v: cleared signature still contains line", k)
		}
	}
}

func TestIntersectsTruePositive(t *testing.T) {
	for _, k := range kinds() {
		a, b := NewFactory(k)(), NewFactory(k)()
		a.Add(100)
		a.Add(200)
		b.Add(300)
		b.Add(200)
		if !a.Intersects(b) || !b.Intersects(a) {
			t.Fatalf("%v: shared line not detected", k)
		}
	}
}

func TestIntersectsEmptyOperand(t *testing.T) {
	for _, k := range kinds() {
		a, b := NewFactory(k)(), NewFactory(k)()
		a.Add(1)
		if a.Intersects(b) || b.Intersects(a) {
			t.Fatalf("%v: intersection with empty signature", k)
		}
	}
}

func TestExactNoFalsePositives(t *testing.T) {
	s := NewExact()
	for i := 0; i < 1000; i++ {
		s.Add(mem.Line(i * 2))
	}
	for i := 0; i < 1000; i++ {
		if s.MayContain(mem.Line(i*2 + 1)) {
			t.Fatal("exact signature reported false positive")
		}
	}
	o := NewExact()
	o.Add(99999)
	if s.Intersects(o) {
		t.Fatal("exact signatures falsely intersect")
	}
}

// Property: Bloom never produces a false negative — every inserted line is
// contained, and two signatures sharing a line always intersect.
func TestQuickBloomSoundness(t *testing.T) {
	f := func(linesA, linesB []uint32, shared uint32) bool {
		a, b := NewBloom(), NewBloom()
		for _, l := range linesA {
			a.Add(mem.Line(l))
		}
		for _, l := range linesB {
			b.Add(mem.Line(l))
		}
		a.Add(mem.Line(shared))
		b.Add(mem.Line(shared))
		for _, l := range linesA {
			if !a.MayContain(mem.Line(l)) {
				return false
			}
		}
		return a.Intersects(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: union is a superset — anything contained in either operand is
// contained in the union.
func TestQuickUnionSuperset(t *testing.T) {
	for _, k := range kinds() {
		k := k
		f := func(linesA, linesB []uint32) bool {
			a, b := NewFactory(k)(), NewFactory(k)()
			for _, l := range linesA {
				a.Add(mem.Line(l))
			}
			for _, l := range linesB {
				b.Add(mem.Line(l))
			}
			a.UnionWith(b)
			for _, l := range append(linesA, linesB...) {
				if !a.MayContain(mem.Line(l)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

// Property: CandidateSets covers every inserted line's true set index.
func TestQuickCandidateSetsCover(t *testing.T) {
	for _, k := range kinds() {
		k := k
		f := func(lines []uint32) bool {
			s := NewFactory(k)()
			for _, l := range lines {
				s.Add(mem.Line(l))
			}
			for _, nsets := range []int{64, 128, 512} {
				m := s.CandidateSets(nsets)
				for _, l := range lines {
					if !m.Has(int(l) & (nsets - 1)) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

func TestCandidateSetsBadArgsPanic(t *testing.T) {
	s := NewBloom()
	for _, bad := range []int{0, 3, 2048, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("nsets=%d did not panic", bad)
				}
			}()
			s.CandidateSets(bad)
		}()
	}
}

func TestMixedKindsPanic(t *testing.T) {
	b, e := NewBloom(), NewExact()
	for _, op := range []func(){
		func() { b.Intersects(e) },
		func() { e.Intersects(b) },
		func() { b.UnionWith(e) },
		func() { e.UnionWith(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("mixed-kind operation did not panic")
				}
			}()
			op()
		}()
	}
}

// TestBloomAliasingRate checks that the banked encoding shows the aliasing
// behaviour the paper's results depend on: with a W signature polluted by
// ~15 lines intersected against 30-line R signatures of *disjoint*
// addresses, the false-conflict rate is substantial (several percent), and
// with a clean ~2-line W signature it is far lower. The precise numbers
// depend on the hash mix; the test checks ordering and rough magnitude.
func TestBloomAliasingRate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	trial := func(wLines, rLines int) float64 {
		hits := 0
		const trials = 3000
		for i := 0; i < trials; i++ {
			w, rs := NewBloom(), NewBloom()
			used := make(map[mem.Line]bool)
			for j := 0; j < wLines; j++ {
				l := mem.Line(r.Intn(1 << hashWindowBits))
				used[l] = true
				w.Add(l)
			}
			for j := 0; j < rLines; j++ {
				l := mem.Line(r.Intn(1 << hashWindowBits))
				for used[l] {
					l = mem.Line(r.Intn(1 << hashWindowBits))
				}
				rs.Add(l)
			}
			if w.Intersects(rs) {
				hits++
			}
		}
		return float64(hits) / trials
	}
	polluted := trial(15, 30)
	clean := trial(2, 30)
	if polluted < 0.01 {
		t.Errorf("polluted-W aliasing rate %.4f implausibly low", polluted)
	}
	if polluted > 0.60 {
		t.Errorf("polluted-W aliasing rate %.4f implausibly high", polluted)
	}
	if clean > polluted/4 {
		t.Errorf("clean-W rate %.4f not much lower than polluted %.4f", clean, polluted)
	}
}

func TestTransferBytes(t *testing.T) {
	if NewBloom().TransferBytes() != CompressedBytes {
		t.Error("bloom transfer size wrong")
	}
	if NewExact().TransferBytes() != CompressedBytes {
		t.Error("exact transfer size wrong")
	}
}

func TestSetMaskCount(t *testing.T) {
	var m SetMask
	m.set(0)
	m.set(63)
	m.set(64)
	m.set(511)
	if m.Count() != 4 {
		t.Fatalf("Count = %d, want 4", m.Count())
	}
	for _, idx := range []int{0, 63, 64, 511} {
		if !m.Has(idx) {
			t.Errorf("bit %d not set", idx)
		}
	}
	if m.Has(1) || m.Has(100) {
		t.Error("unset bit reported set")
	}
}

func TestKindString(t *testing.T) {
	if KindBloom.String() != "bloom" || KindExact.String() != "exact" {
		t.Error("Kind.String wrong")
	}
}

func BenchmarkBloomAdd(b *testing.B) {
	s := NewBloom()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(mem.Line(i))
	}
}

// BenchmarkBloomIntersect measures the arbiter's hottest signature
// operation on realistically-sized disjoint operands (the common case the
// nonempty-word summary short-circuits).
func BenchmarkBloomIntersect(b *testing.B) {
	x, y := NewBloom(), NewBloom()
	for i := 0; i < 30; i++ {
		x.Add(mem.Line(i * 3))
		y.Add(mem.Line(i*3 + 100000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Intersects(y)
	}
}

// BenchmarkBloomIntersectHit is the overlapping-operand control: the scan
// must walk shared nonempty words until a bit collision is found.
func BenchmarkBloomIntersectHit(b *testing.B) {
	x, y := NewBloom(), NewBloom()
	for i := 0; i < 30; i++ {
		x.Add(mem.Line(i * 3))
		y.Add(mem.Line(i*3 + 100000))
	}
	y.Add(mem.Line(45)) // one genuinely shared line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Intersects(y)
	}
}

// BenchmarkBloomUnion measures W-signature accumulation (directory commit
// expansion, arbiter W-list maintenance): only the operand's nonempty
// words are ORed into the accumulator.
func BenchmarkBloomUnion(b *testing.B) {
	acc, w := NewBloom(), NewBloom()
	for i := 0; i < 30; i++ {
		w.Add(mem.Line(i * 17))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.UnionWith(w)
		if i%256 == 0 {
			acc.Clear() // keep occupancy realistic instead of saturating
		}
	}
}
