package rng

import (
	"math"
	"testing"
)

// The zero-outcome squeeze in binomialInversion must be bit-exact: same
// result and same RNG words consumed as the plain CDF walk it short-cuts.
// binomialRef keeps the sampler as it was before the squeeze, so every
// check below compares against the old code, not against a distribution.

// binomialInversionRef is the CDF walk without the squeeze.
func binomialInversionRef(n int, p, u float64) int {
	q := 1 - p
	f := math.Exp(float64(n) * math.Log(q))
	ratio := p / q
	k := 0
	for u > f && k < n {
		u -= f
		k++
		f *= ratio * float64(n-k+1) / float64(k)
	}
	return k
}

// binomialRef is Binomial with the reference inversion in place of the
// squeezed one; the BTRS branch is shared.
func binomialRef(r *RNG, n int, p float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	}
	if p > 0.5 {
		return n - binomialRef(r, n, 1-p)
	}
	if float64(n)*p < _inversionMeanCutoff {
		return binomialInversionRef(n, p, r.src.Float64())
	}
	return r.binomialBTRS(n, p)
}

var squeezeGridN = []int{1, 2, 3, 10, 1_000, 1_000_000, 1_000_000_000}

// squeezeGridP spans 1e-12 to 1/2 in half-decade steps plus a few exact
// binary fractions; mirrored values 1 - p exercise the symmetry path.
func squeezeGridP() []float64 {
	var ps []float64
	for e := -12.0; e < math.Log10(0.5); e += 0.5 {
		ps = append(ps, math.Pow(10, e))
	}
	ps = append(ps, 0.5, 0.25, 0x1p-20, 1.0/3)
	mirrored := make([]float64, 0, len(ps))
	for _, p := range ps {
		mirrored = append(mirrored, 1-p)
	}
	return append(ps, mirrored...)
}

// TestBinomialSqueezeMatchesReference draws from the squeezed and the
// reference sampler on twin streams and checks, draw by draw, both the
// sample and the next stream word.
func TestBinomialSqueezeMatchesReference(t *testing.T) {
	const draws = 200
	for _, n := range squeezeGridN {
		for _, p := range squeezeGridP() {
			got, want := New(uint64(n)), New(uint64(n))
			for i := 0; i < draws; i++ {
				a, b := got.Binomial(n, p), binomialRef(want, n, p)
				if a != b {
					t.Fatalf("Binomial(%d, %g) draw %d = %d, reference %d", n, p, i, a, b)
				}
				if wa, wb := got.Uint64(), want.Uint64(); wa != wb {
					t.Fatalf("Binomial(%d, %g) draw %d: next word %#x, reference %#x", n, p, i, wa, wb)
				}
			}
		}
	}
}

// TestBinomialSqueezeBoundaryUlps probes u a few ulps either side of the
// squeeze bound and of the computed P(X = 0), where the reference walk
// switches from 0 to 1.
func TestBinomialSqueezeBoundaryUlps(t *testing.T) {
	probes := 0
	for _, n := range squeezeGridN {
		for _, p := range squeezeGridP() {
			if p > 0.5 || float64(n)*p >= _inversionMeanCutoff {
				continue
			}
			q := 1 - p
			bound := 1 - float64(n)*(1-q) - _zeroSqueezeSlack
			f := math.Exp(float64(n) * math.Log(q))
			for _, centre := range []float64{bound, f} {
				u := centre
				for i := 0; i < 4; i++ {
					u = math.Nextafter(u, math.Inf(-1))
				}
				for i := 0; i < 9; i, u = i+1, math.Nextafter(u, math.Inf(1)) {
					if u < 0 || u >= 1 {
						continue
					}
					probes++
					if got, want := binomialInversion(n, p, u), binomialInversionRef(n, p, u); got != want {
						t.Errorf("n=%d p=%g u=%.17g: squeezed %d, reference %d", n, p, u, got, want)
					}
				}
			}
		}
	}
	if probes == 0 {
		t.Fatal("no boundary probes ran")
	}
}
