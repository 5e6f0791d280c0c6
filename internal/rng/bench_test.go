package rng

import (
	"fmt"
	"testing"
)

// BenchmarkBinomial contrasts the two sampler regimes: CDF inversion for
// small means and BTRS transformed rejection for large ones (the design
// choice that makes batch rounds O(k) regardless of n).
func BenchmarkBinomial(b *testing.B) {
	cases := []struct {
		name string
		n    int
		p    float64
	}{
		{name: "inversion/np=5", n: 1000, p: 0.005},
		{name: "inversion/np=25", n: 1000, p: 0.025},
		{name: "btrs/np=40", n: 1000, p: 0.04},
		{name: "btrs/np=100", n: 1000, p: 0.1},
		{name: "btrs/np=2048", n: 4096, p: 0.5},
		{name: "btrs/np=1e5", n: 1_000_000, p: 0.1},
		{name: "btrs/np=1e6", n: 10_000_000, p: 0.1},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			r := New(1)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += r.Binomial(tc.n, tc.p)
			}
			_ = sink
		})
	}
}

// BenchmarkBinomialInversion sweeps the inversion regime's mean. At small
// np nearly every draw is 0 and takes the Exp/Log-free zero squeeze; by
// np = 10 the CDF walk dominates.
func BenchmarkBinomialInversion(b *testing.B) {
	const n = 1000
	for _, np := range []float64{1e-3, 0.1, 1, 10} {
		b.Run(fmt.Sprintf("np=%g", np), func(b *testing.B) {
			r := New(1)
			p := np / n
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += r.Binomial(n, p)
			}
			_ = sink
		})
	}
}

// BenchmarkMultinomial sweeps the category count: the conditional-binomial
// scheme is O(k) per draw.
func BenchmarkMultinomial(b *testing.B) {
	for _, k := range []int{10, 1000, 100_000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			r := New(2)
			probs := make([]float64, k)
			for i := range probs {
				probs[i] = 1 / float64(k)
			}
			out := make([]int, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Multinomial(1_000_000, probs, out)
			}
		})
	}
}

// BenchmarkCategoricalVsAlias justifies the alias table in the agent
// engine: linear-scan categorical is O(k) per draw, alias O(1).
func BenchmarkCategoricalVsAlias(b *testing.B) {
	const k = 4096
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = float64(i%17 + 1)
	}
	b.Run("categorical-linear", func(b *testing.B) {
		r := New(3)
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += r.Categorical(weights)
		}
		_ = sink
	})
	b.Run("alias", func(b *testing.B) {
		r := New(3)
		a := NewAlias(weights)
		b.ResetTimer()
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += a.Draw(r)
		}
		_ = sink
	})
	b.Run("alias-including-build", func(b *testing.B) {
		r := New(3)
		sink := 0
		for i := 0; i < b.N; i++ {
			a := NewAlias(weights)
			sink += a.Draw(r)
		}
		_ = sink
	})
}

// BenchmarkAliasDrawN contrasts the scalar one-word draw with the batched
// fill: the fill amortizes RNG dispatch and table bounds checks, which is
// what the per-node engines' strided sample buffers buy.
func BenchmarkAliasDrawN(b *testing.B) {
	const k = 64
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = float64(i%7 + 1)
	}
	a := NewAlias(weights)
	b.Run("draw", func(b *testing.B) {
		r := New(4)
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += a.Draw(r)
		}
		_ = sink
	})
	for _, batch := range []int{64, 1024} {
		b.Run(fmt.Sprintf("drawn-%d", batch), func(b *testing.B) {
			r := New(4)
			dst := make([]int, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				a.DrawN(r, dst)
			}
		})
	}
}

// BenchmarkFillIntN measures the batched uniform fill the graph engine's
// regular-topology fast path uses.
func BenchmarkFillIntN(b *testing.B) {
	r := New(5)
	dst := make([]int, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(dst) {
		r.FillIntN(1000, dst)
	}
}
