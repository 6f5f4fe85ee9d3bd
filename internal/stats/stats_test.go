package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaries(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Mean(xs) != 2.8 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Fatal("Min/Max wrong")
	}
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty-input summaries must be 0")
	}
	if v := Variance([]float64{2, 2, 2}); v != 0 {
		t.Fatalf("Variance of constant = %v", v)
	}
	if v := Variance([]float64{1, 3}); v != 1 {
		t.Fatalf("Variance = %v, want 1", v)
	}
	if Variance([]float64{7}) != 0 {
		t.Fatal("single-point variance must be 0")
	}
}

func TestMinPositive(t *testing.T) {
	if m, ok := MinPositive([]float64{0, -1, 3, 2}); !ok || m != 2 {
		t.Fatalf("MinPositive = %v, %v", m, ok)
	}
	if _, ok := MinPositive([]float64{0, -5}); ok {
		t.Fatal("MinPositive found a positive value where none exists")
	}
	if _, ok := MinPositive(nil); ok {
		t.Fatal("MinPositive on empty input")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Fatalf("perfect positive correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, -1, 1e-12) {
		t.Fatalf("perfect negative correlation = %v", r)
	}
}

func TestPearsonKnownValue(t *testing.T) {
	// Anscombe's quartet set I: r ≈ 0.81642.
	xs := []float64{10, 8, 13, 9, 11, 14, 6, 4, 12, 7, 5}
	ys := []float64{8.04, 6.95, 7.58, 8.81, 8.33, 9.96, 7.24, 4.26, 10.84, 4.82, 5.68}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 0.81642, 1e-4) {
		t.Fatalf("Anscombe I r = %v, want ~0.81642", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Pearson([]float64{1, 2}, []float64{3, 4}); err == nil {
		t.Error("two points accepted")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("zero-variance sample accepted")
	}
}

func TestPearsonBounded(t *testing.T) {
	rng := xrand.New(7)
	f := func(seed uint32) bool {
		n := 3 + int(seed%20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true // degenerate draw
		}
		return r >= -1 && r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonPValueKnown(t *testing.T) {
	// r = 0.9, n = 10 -> t = 5.840, df = 8 -> p ~ 0.000387.
	p, err := PearsonPValue(0.9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p, 0.000387, 5e-5) {
		t.Fatalf("p-value = %v, want ~0.000387", p)
	}
	// r = 0, any n: p = 1.
	p, err = PearsonPValue(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p, 1, 1e-9) {
		t.Fatalf("p-value for r=0 is %v, want 1", p)
	}
	// Perfect correlation: p = 0.
	if p, _ := PearsonPValue(1, 10); p != 0 {
		t.Fatalf("p-value for r=1 is %v", p)
	}
}

// TestPaperScalePValue reproduces the paper's significance claim: a PCC
// of .89 over 150 environments occurs by chance with probability below
// 10^-6 percent (1e-8).
func TestPaperScalePValue(t *testing.T) {
	p, err := PearsonPValue(0.89, 150)
	if err != nil {
		t.Fatal(err)
	}
	if p >= 1e-8 {
		t.Fatalf("p-value %v not below 1e-8", p)
	}
}

func TestPValueMonotoneInR(t *testing.T) {
	prev := 1.1
	for _, r := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99} {
		p, err := PearsonPValue(r, 20)
		if err != nil {
			t.Fatal(err)
		}
		if p >= prev {
			t.Fatalf("p-value not decreasing at r=%v: %v >= %v", r, p, prev)
		}
		prev = p
	}
}

func TestPValueErrors(t *testing.T) {
	if _, err := PearsonPValue(0.5, 2); err == nil {
		t.Fatal("n=2 accepted")
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Fatal("edge values wrong")
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if !almostEq(regIncBeta(1, 1, x), x, 1e-10) {
			t.Fatalf("I_%v(1,1) = %v", x, regIncBeta(1, 1, x))
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.2, 0.4, 0.7} {
		lhs := regIncBeta(3, 5, x)
		rhs := 1 - regIncBeta(5, 3, 1-x)
		if !almostEq(lhs, rhs, 1e-10) {
			t.Fatalf("symmetry broken at x=%v: %v vs %v", x, lhs, rhs)
		}
	}
}

func BenchmarkPearson(b *testing.B) {
	rng := xrand.New(1)
	xs := make([]float64, 150)
	ys := make([]float64, 150)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = xs[i]*0.9 + rng.Float64()*0.1
	}
	for i := 0; i < b.N; i++ {
		if _, err := Pearson(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
