package rules

import (
	"slices"

	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// TwoChoices is the 2-Choices process: sample two nodes; if they agree
// adopt their color, otherwise *ignore* them and keep your own.
//
// 2-Choices is deliberately NOT a core.ACProcess: the next color of a node
// depends on the node's own current color, so its one-round law is not a
// plain multinomial. This is exactly the paper's point in §2.2 — Theorem 2
// does not apply, and indeed 2-Choices dominates Voter in expectation yet
// is far slower from many-color configurations (Theorem 5).
//
// Each node independently switches with probability S = ‖x‖₂² (both
// samples agree) to color i with probability x_i²/S, and otherwise keeps
// its own color. The batch step samples this exact law in one of two
// equivalent forms and takes the cheaper one each round (sparseStep):
//
//   - Dense (keeper/switcher): per color j, keepers_j ~ Bin(c_j, 1−S); the
//     pooled switchers distribute as Mult(Σ switchers, x²/S). One binomial
//     and one multinomial slot per live color: O(k).
//   - Sparse: T ~ Bin(n, S) switchers leave as a uniform T-subset of the
//     n nodes (per color, multivariate hypergeometric — the dense keepers
//     conditioned on their total) and arrive independently ∝ c_i². One
//     integer prefix pass plus O(T log k), which wins in the many-color
//     regime, where S ≈ 1/k and a round moves a handful of nodes.
type TwoChoices struct {
	// Sparse-law scratch: prefix sums of the pre-round counts and of
	// their squares, and the switchers' node labels, then arrival draws.
	cum   []int
	cumSq []int
	draws []int

	// Dense-law scratch, allocated on the first dense round.
	fracs     []float64
	squares   []float64
	keepers   []int
	switchers []int
}

// maxSparseN is the largest population the sparse law handles: Σc² <= n²
// must fit an int. Larger populations take the dense law.
const maxSparseN = 3_037_000_499

// switcherCostInColors is the cost of one sparse-law switcher in units of
// one dense-law live color. Near the crossover (n = 16 384 over 96 equal
// colors, 1.8 switchers per live color) BenchmarkTwoChoicesSparseSwitcher
// measures about 105 ns per switcher and BenchmarkTwoChoicesDenseLiveColor
// about 190 ns per live color, on a 2-CPU Intel Xeon with go1.24;
// 105/190 rounds to 1/2. A dense live color costs that much because each
// keeper and switcher draw there has a mean near 2, past the zero squeeze.
const switcherCostInColors = 0.5

// sparseStep reports whether a round over n nodes with the given live
// colors and Σc² is cheaper by the sparse law: its expected switchers
// n·S = Σc²/n, weighted by switcherCostInColors, against the live colors
// the dense law visits. Both laws are exact, so this is purely a cost
// decision.
func sparseStep(n, live, sumSq int) bool {
	return n <= maxSparseN && float64(sumSq)/float64(n)*switcherCostInColors <= float64(live)
}

var _ core.Rule = (*TwoChoices)(nil)
var _ core.NodeRule = (*TwoChoices)(nil)
var _ core.MeanFielder = (*TwoChoices)(nil)

// NewTwoChoices returns a 2-Choices rule.
func NewTwoChoices() *TwoChoices { return &TwoChoices{} }

// Name implements core.Rule.
func (t *TwoChoices) Name() string { return "2-choices" }

// Step implements core.Rule by the cheaper of the two exact laws.
//
//consensus:hotpath
func (t *TwoChoices) Step(c *config.Config, r *rng.RNG) {
	counts := c.CountsView()
	if n, sumSq, live := t.prefixSums(counts); sparseStep(n, live, sumSq) {
		t.stepSparse(counts, n, sumSq, r)
		return
	}
	t.stepDense(c, r)
}

// prefixSums fills t.cum and t.cumSq with the prefix sums of counts and
// of their squares, and returns n = Σc, Σc² and the number of live
// colors. Past maxSparseN the squares may wrap; sparseStep then takes the
// dense law, which does not read them.
//
//consensus:hotpath
func (t *TwoChoices) prefixSums(counts []int) (n, sumSq, live int) {
	t.cum = resizeInts(t.cum, len(counts))
	t.cumSq = resizeInts(t.cumSq, len(counts))
	for i, ci := range counts {
		if ci > 0 {
			live++
		}
		n += ci
		sumSq += ci * ci
		t.cum[i] = n
		t.cumSq[i] = sumSq
	}
	return n, sumSq, live
}

// stepSparse applies one round by the sparse law, given the prefix sums
// of the pre-round counts from prefixSums, and returns the number of
// switchers.
//
//consensus:hotpath
func (t *TwoChoices) stepSparse(counts []int, n, sumSq int, r *rng.RNG) int {
	m := r.Binomial(n, float64(sumSq)/(float64(n)*float64(n)))
	if m == 0 {
		return 0
	}
	buf := slices.Grow(t.draws[:0], m)[:m]
	t.draws = buf
	// Leavers: m nodes drawn without replacement, by uniform labels in
	// [0, n) rejected when they hit a node already drawn. Slot i holds
	// labels [cum[i-1], cum[i]); its nodes are alike, so the ones still
	// in place are taken to be the lowest counts[i] labels, and a label
	// is accepted with probability counts[i]/n, as it would be for any
	// choice of the nodes already drawn. The per-color leavers are then
	// multivariate hypergeometric, as the law requires.
	for left := m; left > 0; {
		fresh := buf[:left]
		r.FillIntN(n, fresh)
		for _, label := range fresh {
			i, _ := slices.BinarySearch(t.cum, label+1)
			lo := 0
			if i > 0 {
				lo = t.cum[i-1]
			}
			if label-lo < counts[i] {
				counts[i]--
				left--
			}
		}
	}
	// Arrivals: m independent colors ∝ c_i², by an unbiased draw in
	// [0, Σc²). A dead color has weight 0 and never returns.
	r.FillIntN(sumSq, buf)
	for _, a := range buf {
		i, _ := slices.BinarySearch(t.cumSq, a+1)
		counts[i]++
	}
	return m
}

// stepDense applies one round by the keeper/switcher law and returns the
// number of switchers.
//
//consensus:hotpath
func (t *TwoChoices) stepDense(c *config.Config, r *rng.RNG) int {
	k := c.Slots()
	t.fracs = resizeFloats(t.fracs, k)
	t.squares = resizeFloats(t.squares, k)
	t.keepers = resizeInts(t.keepers, k)
	t.switchers = resizeInts(t.switchers, k)

	c.Fractions(t.fracs)
	s := 0.0
	for i, x := range t.fracs {
		t.squares[i] = x * x
		s += t.squares[i]
	}
	counts := c.CountsView()
	totalSwitchers := 0
	for i, ci := range counts {
		if ci == 0 {
			t.keepers[i] = 0
			continue
		}
		// Each node keeps its own color unless both samples agree on some
		// color (probability S).
		keep := r.Binomial(ci, 1-s)
		t.keepers[i] = keep
		totalSwitchers += ci - keep
	}
	// Switchers adopt color i with probability x_i²/S, independently.
	r.Multinomial(totalSwitchers, t.squares, t.switchers)
	for i := range counts {
		counts[i] = t.keepers[i] + t.switchers[i]
	}
	return totalSwitchers
}

// MeanFieldStep implements core.MeanFielder: in expectation 2-Choices
// and 3-Majority agree (footnote 2), so the map is the shared expected
// next-fraction expression — algebraically Eq. 2.
func (t *TwoChoices) MeanFieldStep(x, out []float64) bool {
	analytic.ExpectedNextFraction(x, out)
	return true
}

// MeanFieldLipschitz implements core.MeanFielder: same map as Eq. 2,
// same bound.
func (t *TwoChoices) MeanFieldLipschitz(x []float64, radius float64) float64 {
	return analytic.ThreeMajorityLipschitz(x, radius)
}

// MeanFieldExact implements core.MeanFielder: false — the one-round law
// is keeper/switcher, not Mult(n, α(x)) (2-Choices is not an
// AC-process, §2.2), so the hybrid engine never fast-forwards it. The
// map is exposed for trajectory analysis only; this is deliberate and
// mirrors the paper's point that 2-Choices' behavior near ties is not
// captured by its expectation dynamics.
func (t *TwoChoices) MeanFieldExact() bool { return false }

// Samples implements core.NodeRule.
func (t *TwoChoices) Samples() int { return 2 }

// Update implements core.NodeRule: adopt on agreement, otherwise ignore.
//
//consensus:hotpath
func (t *TwoChoices) Update(own int, samples []int, _ *rng.RNG) int {
	if samples[0] == samples[1] {
		return samples[0]
	}
	return own
}
