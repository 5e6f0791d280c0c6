package rules

import (
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/stats"
)

// TestBatchStepZeroSteadyStateAllocs: a steady-state batch round must not
// allocate for the rules the hot loop leans on — the AC laws (Voter,
// 3-Majority), the keeper/switcher laws (2-Choices' stepDense over 8
// colors, LazyVoter), 2-Choices' sparse law (prefixSums and stepSparse
// from the n-color start), and the count-based h-Majority law, whose
// per-round enumeration reuses the scratch held by
// analytic.AlphaEnumerator.
func TestBatchStepZeroSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name  string
		rule  core.Rule
		start *config.Config
	}{
		{"voter", NewVoter(), config.Balanced(4096, 8)},
		{"3-majority", NewThreeMajority(), config.Balanced(4096, 8)},
		{"2-choices", NewTwoChoices(), config.Balanced(4096, 8)},
		{"2-choices-sparse", NewTwoChoices(), config.Singleton(4096)},
		{"lazy-voter", NewLazyVoter(0.5), config.Balanced(4096, 8)},
		{"5-majority-count-based", NewHMajority(5), config.Balanced(4096, 8)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(31)
			c := tc.start
			for i := 0; i < 5; i++ {
				tc.rule.Step(c, r) // reach steady state
			}
			if avg := testing.AllocsPerRun(50, func() { tc.rule.Step(c, r) }); avg != 0 {
				t.Errorf("%s batch round allocates %.2f times, want 0", tc.name, avg)
			}
		})
	}
}

// TestPerNodeStepZeroSteadyStateAllocs: the O(n·h) fallback law —
// stepPerNode rebuilding the alias table and resolving each node's
// plurality — must also stop allocating once its scratch reaches
// steady-state capacity (the h > 16 tie buffer is the one waived cold
// path, not exercised here).
func TestPerNodeStepZeroSteadyStateAllocs(t *testing.T) {
	m := NewHMajority(5)
	m.forcePerNode = true
	r := rng.New(33)
	c := config.Balanced(4096, 8)
	for i := 0; i < 5; i++ {
		m.Step(c, r) // reach steady state
	}
	if avg := testing.AllocsPerRun(50, func() { m.Step(c, r) }); avg != 0 {
		t.Errorf("per-node batch round allocates %.2f times, want 0", avg)
	}
}

// TestHMajorityStepRegimes pins the cutoff: narrow supports take the
// count-based law, wide supports fall back to the per-node sampler. Both
// paths must preserve the configuration invariant.
func TestHMajorityStepRegimes(t *testing.T) {
	r := rng.New(32)
	// h=5 over 8 live colors: 792 terms, count-based.
	m := NewHMajority(5)
	c := config.Balanced(10_000, 8)
	m.Step(c, r)
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if m.alias != nil {
		t.Error("narrow support built the fallback alias table; count-based path not taken")
	}
	// h=5 over 256 live colors: C(260, 255) ≈ 9.7e9 terms, per-node.
	wide := config.Balanced(10_000, 256)
	m.Step(wide, r)
	if err := wide.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if m.alias == nil {
		t.Error("wide support did not fall back to the per-node sampler")
	}
}

// TestCountBasedStepChoice pins the cost-calibrated law choice: the same
// support flips from per-node to enumeration as n grows, and the
// StepEnumerationMaxTerms cap holds at any n, for Step and MeanFieldStep.
func TestCountBasedStepChoice(t *testing.T) {
	cases := []struct {
		name       string
		n, h, s    int
		countBased bool
	}{
		// E9 quick: 74 613 terms against 6 144 pulls.
		{"E9 quick n=1024 h=6 s=17", 1024, 6, 17, false},
		{"n=1e6 h=6 s=17", 1_000_000, 6, 17, true},
		// 792 terms: a 6·792 = 4 752 pull budget needs n·h >= 4 752.
		{"n=950 h=5 s=8", 950, 5, 8, false},
		{"n=951 h=5 s=8", 951, 5, 8, true},
		// The determinism pin's start: 56 terms against 500 pulls.
		{"n=100 h=5 s=4", 100, 5, 4, true},
		// C(28,5) = 98 280 terms fits the cap, C(29,5) = 118 755 does not.
		{"n=1e9 h=5 s=24", 1_000_000_000, 5, 24, true},
		{"n=1e9 h=5 s=25", 1_000_000_000, 5, 25, false},
		// A single live color is one term; only tiny n·h samples per node.
		{"n=1 h=1 s=1", 1, 1, 1, false},
		{"n=6 h=1 s=1", 6, 1, 1, true},
	}
	for _, tc := range cases {
		if got := countBasedStep(tc.n, tc.h, tc.s); got != tc.countBased {
			t.Errorf("%s: countBasedStep = %v, want %v", tc.name, got, tc.countBased)
		}
	}
	// The mean-field map has no n, only the cap.
	m := NewHMajority(5)
	for _, s := range []int{24, 25} {
		x := make([]float64, s)
		for i := range x {
			x[i] = 1 / float64(s)
		}
		if got, want := m.MeanFieldStep(x, make([]float64, s)), s == 24; got != want {
			t.Errorf("MeanFieldStep h=5 over %d colors = %v, want %v", s, got, want)
		}
	}
}

// TestHMajorityCountBasedMatchesPerNode cross-validates the two batch-step
// regimes over whole trajectories: with forcePerNode pinning the O(n·h)
// sampler, the consensus-time and winner distributions must be
// statistically indistinguishable from the count-based law at the
// documented equivalence budget. Seeded, so deterministic.
func TestHMajorityCountBasedMatchesPerNode(t *testing.T) {
	const (
		n    = 400
		k    = 6
		h    = 5
		reps = 100
	)
	collect := func(perNode bool, seedBase uint64) (rounds []float64, wins []int) {
		wins = make([]int, k)
		for rep := 0; rep < reps; rep++ {
			m := NewHMajority(h)
			m.forcePerNode = perNode
			r := rng.New(seedBase + uint64(rep))
			c := config.Balanced(n, k)
			round := 0
			for ; c.Remaining() > 1 && round < 10_000; round++ {
				m.Step(c, r)
			}
			if c.Remaining() > 1 {
				t.Fatalf("perNode=%v rep %d: no consensus in 10k rounds", perNode, rep)
			}
			rounds = append(rounds, float64(round))
			slot, _ := c.Max()
			wins[c.Label(slot)]++
		}
		return rounds, wins
	}
	countRounds, countWins := collect(false, 50_000)
	nodeRounds, nodeWins := collect(true, 60_000)

	ks, err := stats.TwoSampleKS(countRounds, nodeRounds)
	if err != nil {
		t.Fatal(err)
	}
	if !ks.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
		t.Errorf("consensus-time distributions differ count-based vs per-node: D=%.3f p=%.2g", ks.D, ks.P)
	}
	chi, err := stats.ChiSquareHomogeneity(countWins, nodeWins)
	if err != nil {
		t.Fatal(err)
	}
	if !chi.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
		t.Errorf("winner distributions differ count-based vs per-node: %v vs %v (p=%.2g)", countWins, nodeWins, chi.P)
	}
}

// BenchmarkHMajorityStepRegimes contrasts the two regimes across n: the
// count-based law must be flat in n, the per-node fallback linear.
func BenchmarkHMajorityStepRegimes(b *testing.B) {
	for _, tc := range []struct {
		name    string
		perNode bool
		n       int
		k       int
	}{
		{"count-based/n=1e5", false, 100_000, 8},
		{"count-based/n=1e6", false, 1_000_000, 8},
		{"per-node/n=1e5", true, 100_000, 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := NewHMajority(5)
			m.forcePerNode = tc.perNode
			r := rng.New(1)
			start := config.Balanced(tc.n, tc.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := start.Clone()
				m.Step(c, r)
			}
		})
	}
}
