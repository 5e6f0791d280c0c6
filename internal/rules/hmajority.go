package rules

import (
	"fmt"

	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// HMajority is the general h-Majority process used by Conjecture 1: sample
// h nodes and adopt the plurality color of the samples, breaking ties
// uniformly among the tied plurality colors.
//
// For h = 3 this is exactly the paper's 3-Majority (a 2-out-of-3 color is
// the unique plurality; three distinct samples tie and the uniform
// tie-break equals "adopt a random sample"). For h = 1 and h = 2 it
// collapses to Voter, as the paper notes below Conjecture 1.
//
// h-Majority is an AC-process, but its process function has no closed form
// for h >= 4. Its batch step has two exact laws and takes the cheaper one
// each round. The count-based law enumerates the process function α(c)
// exactly (analytic.AlphaEnumerator, Eq. 2 generalizes to plurality-of-h)
// and draws Mult(n, α) — O(k + terms), independent of n, with
// C(h+support-1, support-1) terms. The per-node law samples each node's h
// pulls from an alias table over the color distribution — O(n·h). The
// choice (countBasedStep) weighs the two by their measured unit costs, so
// a wide support at small n samples per node and the same support at
// large n enumerates. AlphaExact exposes the enumerated process function
// directly (see analytic.HMajorityAlpha).
type HMajority struct {
	h      int
	next   []int
	fracs  []float64
	alpha  []float64
	sample []int
	alias  *rng.Alias
	enum   analytic.AlphaEnumerator

	// forcePerNode pins the O(n·h) fallback path; tests use it to
	// cross-validate the count-based law against the per-node sampler.
	forcePerNode bool
}

// StepEnumerationMaxTerms caps the count-based law at any population size:
// Step enumerates at most this many sample-count outcomes per round, and
// fewer when the per-node law is cheaper (countBasedStep). C(h+s-1, s-1)
// grows fast — h=5 over 8 live colors is 792 terms, over 16 colors
// 15 504 — so large populations with moderate color counts stay
// count-based (n-independent). The cap is far below
// analytic.MaxEnumerationTerms because Step pays it every round, not once.
// MeanFieldStep, which has no per-node alternative, uses this cap alone.
const StepEnumerationMaxTerms = 100_000

// enumTermCostInDraws is the cost of one α-enumeration term in units of
// one per-node pull. BenchmarkHMajorityEnumTerm measures about 125 ns per
// term (h = 3…6, 12 live colors) and BenchmarkHMajorityPerNodeDraw about
// 20 ns per pull (n = 1024, 17 live colors), on a 2-CPU Intel Xeon with
// go1.24; 125/20 rounds to 6.
const enumTermCostInDraws = 6

// countBasedStep reports whether a round over n nodes and the given live
// support is cheaper by enumeration (terms·enumTermCostInDraws <= n·h)
// than by per-node sampling, within StepEnumerationMaxTerms. Both laws are
// exact, so this is purely a cost decision.
func countBasedStep(n, h, support int) bool {
	terms := analytic.HMajorityTerms(h, support, StepEnumerationMaxTerms)
	return terms > 0 && terms*enumTermCostInDraws <= n*h
}

var _ core.Rule = (*HMajority)(nil)
var _ core.NodeRule = (*HMajority)(nil)
var _ core.MeanFielder = (*HMajority)(nil)

// NewHMajority returns an h-Majority rule. It panics for h < 1
// (programmer error).
func NewHMajority(h int) *HMajority {
	if h < 1 {
		panic("rules: NewHMajority requires h >= 1")
	}
	return &HMajority{
		h:      h,
		sample: make([]int, h),
	}
}

// H returns the sample size h.
func (m *HMajority) H() int { return m.h }

// Name implements core.Rule.
func (m *HMajority) Name() string { return fmt.Sprintf("%d-majority", m.h) }

// Step implements core.Rule. When enumeration is the cheaper law
// (countBasedStep) it applies the count-based exact law — enumerate α(c),
// draw Mult(n, α) — in time independent of n; otherwise it draws every
// node's h samples from the current color distribution (exact under
// Uniform Pull: a uniform node sample is a categorical color sample with
// probabilities c_i/n).
//
//consensus:hotpath
func (m *HMajority) Step(c *config.Config, r *rng.RNG) {
	counts := c.CountsView()
	if !m.forcePerNode && countBasedStep(c.N(), m.h, c.Remaining()) {
		m.fracs = resizeFloats(m.fracs, len(counts))
		m.alpha = resizeFloats(m.alpha, len(counts))
		c.Fractions(m.fracs)
		if err := m.enum.Alpha(m.fracs, m.h, m.alpha); err == nil {
			core.ACStep(c, r, m.alpha)
			return
		}
	}
	m.stepPerNode(c, r)
}

// stepPerNode is the O(n·h) fallback law: every node's h pulls are drawn
// from an alias table over the color counts (rebuilt in place each round),
// batched through DrawN.
//
//consensus:hotpath
func (m *HMajority) stepPerNode(c *config.Config, r *rng.RNG) {
	counts := c.CountsView()
	n := c.N()
	if m.alias == nil {
		m.alias = rng.NewAliasCounts(counts)
	} else {
		m.alias.ResetCounts(counts)
	}
	alias := m.alias
	m.next = resizeInts(m.next, len(counts))
	clear(m.next)
	for node := 0; node < n; node++ {
		alias.DrawN(r, m.sample)
		m.next[m.plurality(m.sample, r)]++
	}
	copy(counts, m.next)
}

// MeanFieldStep implements core.MeanFielder: the plurality-of-h map by
// exact enumeration, evaluable while the live support stays within
// StepEnumerationMaxTerms. The cap is n-free on purpose: the map has no
// per-node alternative, so wherever Step may enumerate at some population
// size the mean-field map is evaluable too.
func (m *HMajority) MeanFieldStep(x, out []float64) bool {
	live := 0
	for _, v := range x {
		if v > 0 {
			live++
		}
	}
	if analytic.HMajorityTerms(m.h, live, StepEnumerationMaxTerms) < 0 {
		return false
	}
	return m.enum.Alpha(x, m.h, out) == nil
}

// MeanFieldLipschitz implements core.MeanFielder: the h = 3 map is
// exactly Eq. 2 with its sharper local bound; otherwise the global
// coupling bound h.
func (m *HMajority) MeanFieldLipschitz(x []float64, radius float64) float64 {
	if m.h == 3 {
		return analytic.ThreeMajorityLipschitz(x, radius)
	}
	return analytic.HMajorityLipschitz(m.h)
}

// MeanFieldExact implements core.MeanFielder: h-Majority is an
// AC-process, one round is Mult(n, α(x)).
func (m *HMajority) MeanFieldExact() bool { return true }

// Samples implements core.NodeRule.
func (m *HMajority) Samples() int { return m.h }

// Update implements core.NodeRule: plurality with uniform tie-breaking.
//
//consensus:hotpath
func (m *HMajority) Update(_ int, samples []int, r *rng.RNG) int {
	return m.plurality(samples, r)
}

// plurality returns the plurality value among samples[:h], breaking ties
// uniformly among the tied colors. It scans deterministically (O(h²), h is
// a small constant) so that runs reproduce exactly from a seed. The tie
// buffer is local — stack-allocated for h <= 16, a per-call heap
// allocation beyond that — never receiver state, so Update is
// unconditionally safe for concurrent calls from the sharded engines
// (which may share one instance across shards on a single-rule Runner).
//
//consensus:hotpath
func (m *HMajority) plurality(samples []int, r *rng.RNG) int {
	var buf [16]int
	tied := buf[:0]
	if m.h > len(buf) {
		tied = make([]int, 0, m.h) //lint:alloc cold path: h > 16 only, covered by the h<=16 zero-alloc test
	}
	maxCount := 0
	for i := 0; i < m.h; i++ {
		v := samples[i]
		// Count each distinct value once, at its first occurrence.
		first := true
		for j := 0; j < i; j++ {
			if samples[j] == v {
				first = false
				break
			}
		}
		if !first {
			continue
		}
		count := 1
		for j := i + 1; j < m.h; j++ {
			if samples[j] == v {
				count++
			}
		}
		switch {
		case count > maxCount:
			maxCount = count
			tied = append(tied[:0], v)
		case count == maxCount:
			tied = append(tied, v)
		}
	}
	if len(tied) == 1 {
		return tied[0]
	}
	return tied[r.IntN(len(tied))]
}

// AlphaExact returns the exact process function α(c) by enumeration, or an
// error when the live support is too large (analytic.HMajorityAlpha's
// enumeration bound).
func (m *HMajority) AlphaExact(c *config.Config) ([]float64, error) {
	m.fracs = resizeFloats(m.fracs, c.Slots())
	c.Fractions(m.fracs)
	return analytic.HMajorityAlpha(m.fracs, m.h)
}
