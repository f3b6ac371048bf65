package stats_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// The RNG's hot draws bypass rand.Rand. These tests pin them to the
// stdlib formulas they replace, draw for draw, against a rand.Rand over a
// PCG with the same seeds.

// refBool is Bool as a Float64 comparison.
func refBool(ref *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return ref.Float64() < p
}

// refGeometric is Geometric as a loop of Bernoulli trials.
func refGeometric(ref *rand.Rand, p float64) int {
	if p >= 1 {
		return 0
	}
	n := 0
	for !refBool(ref, p) {
		n++
		if n >= 1<<20 {
			break
		}
	}
	return n
}

// probabilities returns the edge probabilities, every catalog workload's
// gap parameter and write fraction, and random draws.
func probabilities() []float64 {
	ps := []float64{0x1p-53, 1 - 0x1p-53, 0.5, 0.2, 1e-300, math.Nextafter(1, 0)}
	for _, s := range trace.Catalog() {
		ps = append(ps, 1/(s.GapMeanInstructions()+1), s.WriteFrac)
	}
	r := rand.New(rand.NewPCG(99, 100))
	for i := 0; i < 16; i++ {
		ps = append(ps, r.Float64())
	}
	return ps
}

func TestBoolMatchesFloat64Compare(t *testing.T) {
	for i, p := range probabilities() {
		r := stats.NewRNG(uint64(i), 7)
		ref := rand.New(rand.NewPCG(uint64(i), 7))
		for d := 0; d < 100_000; d++ {
			if got, want := r.Bool(p), refBool(ref, p); got != want {
				t.Fatalf("Bool(%v) draw %d = %v, Float64() < p = %v", p, d, got, want)
			}
		}
	}
}

// TestBelowIsExactAtTheBoundary checks the threshold against the float
// comparison for the integers either side of it, where rounding would
// show.
func TestBelowIsExactAtTheBoundary(t *testing.T) {
	ps := probabilities()
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 1000; i++ {
		// Probabilities that are exact multiples of 2⁻⁵³ and their
		// neighbours, plus ones far from any multiple.
		m := float64(r.Uint64N(1<<53-1) + 1)
		p := m / (1 << 53)
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1), r.Float64()*0x1p-40)
	}
	for _, p := range ps {
		if p <= 0 || p >= 1 {
			continue
		}
		thr := stats.Below(p)
		for x := thr - min(thr, 2); x <= thr+2 && x < 1<<53; x++ {
			if got, want := x < thr, float64(x)/(1<<53) < p; got != want {
				t.Fatalf("p=%v x=%d: x < Below(p) = %v, x/2^53 < p = %v", p, x, got, want)
			}
		}
	}
	if got := stats.Below(math.NaN()); got != 0 {
		t.Fatalf("Below(NaN) = %d, want 0", got)
	}
}

func TestGeometricMatchesBernoulliLoop(t *testing.T) {
	for i, p := range probabilities() {
		if p < 1e-3 {
			// Non-positive p panics; tiny p takes ~1/p draws per sample
			// and is covered by the cap test.
			continue
		}
		r := stats.NewRNG(uint64(i), 11)
		ref := rand.New(rand.NewPCG(uint64(i), 11))
		for d := 0; d < 20_000; d++ {
			if got, want := r.Geometric(p), refGeometric(ref, p); got != want {
				t.Fatalf("Geometric(%v) sample %d = %d, Bernoulli loop = %d", p, d, got, want)
			}
		}
	}
}

func TestGeometricCapMatchesBernoulliLoop(t *testing.T) {
	const p = 1e-12 // ~10¹² expected trials: every sample hits the cap
	r := stats.NewRNG(3, 4)
	ref := rand.New(rand.NewPCG(3, 4))
	for d := 0; d < 3; d++ {
		got, want := r.Geometric(p), refGeometric(ref, p)
		if got != want || got != 1<<20 {
			t.Fatalf("Geometric(%v) sample %d = %d, Bernoulli loop = %d, cap %d", p, d, got, want, 1<<20)
		}
	}
	if r.Uint64() != ref.Uint64() {
		t.Fatal("streams diverged after capped samples")
	}
}

// TestRNGLockstepWithStdlib interleaves every draw kind, on the direct
// path and through rand.Rand, and checks that the two streams stay
// aligned throughout.
func TestRNGLockstepWithStdlib(t *testing.T) {
	r := stats.NewRNG(21, 22)
	ref := rand.New(rand.NewPCG(21, 22))
	ops := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 50_000; i++ {
		ok := true
		switch op := ops.IntN(8); op {
		case 0:
			ok = r.Uint64() == ref.Uint64()
		case 1:
			ok = r.Float64() == ref.Float64()
		case 2:
			n := 1 + ops.IntN(1000)
			ok = r.IntN(n) == ref.IntN(n)
		case 3:
			n := int64(1) + ops.Int64N(1<<40)
			ok = r.Int64N(n) == ref.Int64N(n)
		case 4:
			a, b := r.Perm(7), ref.Perm(7)
			for j := range a {
				ok = ok && a[j] == b[j]
			}
		case 5:
			p := ops.Float64()
			ok = r.Bool(p) == refBool(ref, p)
		case 6:
			p := 0.05 + 0.9*ops.Float64()
			ok = r.Geometric(p) == refGeometric(ref, p)
		default:
			ok = r.Split(uint64(i)).Uint64() == stats.NewRNG(
				ref.Uint64()^(uint64(i)*0x9e3779b97f4a7c15),
				ref.Uint64()^(uint64(i)*0xbf58476d1ce4e5b9+0x94d049bb133111eb)).Uint64()
		}
		if !ok {
			t.Fatalf("op %d: streams diverged", i)
		}
	}
}
