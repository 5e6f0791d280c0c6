package rng

import (
	"math"
	"testing"
)

// The zero-outcome squeeze in binomialInversion and the lazy log-pmf
// set-up in binomialBTRS must be bit-exact: same result and same RNG words
// consumed as the plain samplers they short-cut. binomialRef keeps both
// samplers as they were before, so every check below compares against the
// old code, not against a distribution.

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

// binomialBTRSRef is BTRS with every constant computed up front.
func binomialBTRSRef(r *RNG, n int, p float64) int {
	var (
		fn    = float64(n)
		q     = 1 - p
		spq   = math.Sqrt(fn * p * q)
		b     = 1.15 + 2.53*spq
		a     = -0.0873 + 0.0248*b + 0.01*p
		c     = fn*p + 0.5
		vr    = 0.92 - 4.2/b
		alpha = (2.83 + 5.1/b) * spq
		lpq   = math.Log(p / q)
		m     = math.Floor((fn + 1) * p)
		h     = lgamma(m+1) + lgamma(fn-m+1)
	)
	for {
		u := r.src.Float64() - 0.5
		v := r.src.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > fn {
			continue
		}
		if us >= 0.07 && v <= vr {
			return int(kf)
		}
		lhs := math.Log(v * alpha / (a/(us*us) + b))
		rhs := h - lgamma(kf+1) - lgamma(fn-kf+1) + (kf-m)*lpq
		if lhs <= rhs {
			return int(kf)
		}
	}
}

// binomialRef is Binomial with both reference samplers in place of the
// squeezed inversion and the lazy BTRS.
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
	return binomialBTRSRef(r, n, p)
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

// TestBinomialBTRSMatchesReference checks the lazy BTRS set-up draw by
// draw against the eager reference on twin streams, over means from the
// sampler's lower limit np = 10 up to np = 1e6 and populations from 2·np
// to 1e9: same sample, same next word. Binomial itself reaches BTRS only
// from np = 30; the mirrored p > 1/2 path is covered by
// TestBinomialSqueezeMatchesReference and FuzzBinomial.
func TestBinomialBTRSMatchesReference(t *testing.T) {
	const draws = 500
	for _, np := range []float64{10, 17, 30, 40, 100, 300, 2048, 1e4, 1e5, 1e6} {
		for _, n := range []int{int(2 * np), int(20 * np), 1_000_000_000} {
			p := np / float64(n)
			got, want := New(uint64(n)), New(uint64(n))
			for i := 0; i < draws; i++ {
				if a, b := got.binomialBTRS(n, p), binomialBTRSRef(want, n, p); a != b {
					t.Fatalf("BTRS(%d, %g) draw %d = %d, reference %d", n, p, i, a, b)
				}
				if wa, wb := got.Uint64(), want.Uint64(); wa != wb {
					t.Fatalf("BTRS(%d, %g) draw %d: next word %#x, reference %#x", n, p, i, wa, wb)
				}
			}
		}
	}
}
