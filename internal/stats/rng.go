// Package stats provides the small numeric substrate shared by every
// experiment harness in this repository: a deterministic, splittable random
// number generator, histogram types, and summary statistics (mean, geometric
// mean, percentiles).
//
// Determinism matters here: the paper's Monte Carlo experiment (Fig. 7) and
// the synthetic workload generators must be exactly reproducible from a seed
// so that the tables and figures regenerate identically across runs and
// machines. All randomness in the repository flows through stats.RNG.
package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random source. It wraps the stdlib PCG
// generator and adds the derivation helpers the simulators need (splitting a
// stream per core, bounded draws, probability tests).
//
// The hot draws (Uint64, Float64, Bool, Geometric) call the PCG directly;
// the rest go through a rand.Rand wrapping the same PCG, so both paths
// advance one shared state and the stream is exactly the stdlib's.
//
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	pcg *rand.PCG
	src *rand.Rand
}

// NewRNG returns a generator seeded from the two seed words. Equal seeds
// yield identical streams.
func NewRNG(seed1, seed2 uint64) *RNG {
	pcg := rand.NewPCG(seed1, seed2)
	return &RNG{pcg: pcg, src: rand.New(pcg)}
}

// Split derives an independent generator from this one, identified by id.
// Each (parent seed, id) pair yields a fixed stream, so per-core or
// per-experiment sub-streams are reproducible regardless of draw ordering in
// the parent.
func (r *RNG) Split(id uint64) *RNG {
	// Mix the id through two draws so adjacent ids decorrelate.
	a := r.src.Uint64() ^ (id * 0x9e3779b97f4a7c15)
	b := r.src.Uint64() ^ (id*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb)
	return NewRNG(a, b)
}

// SplitN derives n independent generators, one per job of a parallel
// fan-out. The derivation consumes the parent serially before any job runs,
// so handing rngs[i] to worker i keeps results bit-identical regardless of
// worker count or completion order.
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split(uint64(i))
	}
	return out
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 { return r.pcg.Uint64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Int64N returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int64N(n int64) int64 { return r.src.Int64N(n) }

// Float64 returns a uniform value in [0, 1): a 53-bit integer scaled by
// 2⁻⁵³, the stdlib's rand.Rand.Float64 formula.
func (r *RNG) Float64() float64 { return float64(r.unit53()) / (1 << 53) }

// unit53 draws the 53-bit integer behind one Float64.
func (r *RNG) unit53() uint64 { return r.pcg.Uint64() << 11 >> 11 }

// below returns the number of 53-bit integers x with x/2⁵³ < p, for p in
// (0, 1) or NaN: unit53() < below(p) is exactly Float64() < p, because
// both x/2⁵³ and p·2⁵³ are exact in float64. NaN maps to 0, as nothing
// compares below NaN.
func below(p float64) uint64 {
	if math.IsNaN(p) {
		return 0
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Bool returns true with probability p (clamped to [0, 1]). For p in
// (0, 1) it consumes one draw and answers exactly as Float64() < p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.unit53() < below(p)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Geometric returns a draw from a geometric distribution with success
// probability p, i.e. the number of failures before the first success
// (support {0, 1, 2, ...}, mean (1-p)/p). Used to model bursty gaps between
// memory instructions. p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("stats: Geometric requires p in (0,1]")
	}
	// Counts failed Bernoulli(p) trials before the first success: one
	// draw per trial, each exactly Bool(p), so O(1/p) draws per sample.
	// Capped to keep pathological draws bounded.
	t := below(p)
	n := 0
	for r.unit53() >= t {
		n++
		if n >= 1<<20 {
			break
		}
	}
	return n
}
