package rules

import (
	"fmt"
	"testing"

	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// BenchmarkStep measures one exact-law round per rule across color counts.
// The AC rules and the keeper/switcher rules are O(k); h-Majority's batch
// form is O(n·h) (per-node draws); 2-Median is O(k²).
func BenchmarkStep(b *testing.B) {
	factories := []struct {
		name string
		mk   func() core.Rule
	}{
		{name: "voter", mk: func() core.Rule { return NewVoter() }},
		{name: "lazy-voter", mk: func() core.Rule { return NewLazyVoter(0.5) }},
		{name: "2-choices", mk: func() core.Rule { return NewTwoChoices() }},
		{name: "3-majority", mk: func() core.Rule { return NewThreeMajority() }},
		{name: "undecided", mk: func() core.Rule { return NewUndecided() }},
		{name: "2-median", mk: func() core.Rule { return NewTwoMedian() }},
		{name: "4-majority", mk: func() core.Rule { return NewHMajority(4) }},
	}
	sizes := []struct{ n, k int }{
		{n: 100_000, k: 16},
		{n: 100_000, k: 1024},
	}
	for _, f := range factories {
		for _, sz := range sizes {
			b.Run(fmt.Sprintf("%s/n=%d,k=%d", f.name, sz.n, sz.k), func(b *testing.B) {
				r := rng.New(1)
				start := config.Balanced(sz.n, sz.k)
				rule := f.mk()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := start.Clone()
					rule.Step(c, r)
				}
			})
		}
	}
}

// BenchmarkAlphaEval measures process-function evaluation (used by the
// dominance framework).
func BenchmarkAlphaEval(b *testing.B) {
	cfg := config.Balanced(1_000_000, 10_000)
	out := make([]float64, cfg.Slots())
	b.Run("voter", func(b *testing.B) {
		v := NewVoter()
		for i := 0; i < b.N; i++ {
			v.Alpha(cfg, out)
		}
	})
	b.Run("3-majority", func(b *testing.B) {
		m := NewThreeMajority()
		for i := 0; i < b.N; i++ {
			m.Alpha(cfg, out)
		}
	})
}

// The two benchmarks below calibrate HMajority's law choice
// (enumTermCostInDraws): the cost of one α-enumeration term against one
// per-node pull. Both report their unit cost as a custom metric.

// BenchmarkHMajorityEnumTerm measures the count-based law's enumeration
// cost per sample-count outcome, over 12 equal live colors.
func BenchmarkHMajorityEnumTerm(b *testing.B) {
	const s = 12
	x := make([]float64, s)
	for i := range x {
		x[i] = 1.0 / s
	}
	out := make([]float64, s)
	for h := 3; h <= 6; h++ {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			var enum analytic.AlphaEnumerator
			terms := analytic.HMajorityTerms(h, s, analytic.MaxEnumerationTerms)
			for i := 0; i < b.N; i++ {
				if err := enum.Alpha(x, h, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(terms), "ns/term")
		})
	}
}

// BenchmarkHMajorityPerNodeDraw measures the per-node law's cost per pull
// (alias DrawN plus the plurality scan, amortized over the h pulls of a
// node) at E9's quick population, n = 1024 over 17 live colors.
func BenchmarkHMajorityPerNodeDraw(b *testing.B) {
	const n, k = 1024, 17
	for h := 3; h <= 6; h++ {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			m := NewHMajority(h)
			r := rng.New(1)
			start := config.Balanced(n, k)
			c := start.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(c.CountsView(), start.CountsView())
				m.stepPerNode(c, r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*h), "ns/draw")
		})
	}
}

// The two benchmarks below calibrate TwoChoices' law choice
// (switcherCostInColors): the cost of one sparse-law switcher against one
// live color on the dense law. Both report their unit cost as a custom
// metric and restore the start before every round. Both run n = 16 384
// over k equal colors, n·S = n/k switchers a round, and k spans the
// crossover: 4 switchers per live color at k = 64, one at k = 128.

// BenchmarkTwoChoicesDenseLiveColor measures the keeper/switcher law's
// cost per live color.
func BenchmarkTwoChoicesDenseLiveColor(b *testing.B) {
	const n = 16_384
	for _, k := range []int{64, 96, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			tc := NewTwoChoices()
			r := rng.New(1)
			start := config.Balanced(n, k)
			c := start.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(c.CountsView(), start.CountsView())
				tc.stepDense(c, r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/color")
		})
	}
}

// BenchmarkTwoChoicesSparseSwitcher measures the sparse law's cost per
// switcher, beyond the prefix pass both laws share.
func BenchmarkTwoChoicesSparseSwitcher(b *testing.B) {
	const n = 16_384
	for _, k := range []int{64, 96, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			tc := NewTwoChoices()
			r := rng.New(1)
			start := config.Balanced(n, k)
			counts := start.CountsView()
			total, sumSq, _ := tc.prefixSums(counts)
			c := start.Clone()
			switchers := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(c.CountsView(), counts)
				switchers += tc.stepSparse(c.CountsView(), total, sumSq, r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(switchers), "ns/switcher")
		})
	}
}
