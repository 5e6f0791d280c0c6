package rules

import (
	"math"
	"slices"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/stats"
)

// stepLaw applies one round by the sparse or the dense law and returns
// the number of switchers.
func stepLaw(tc *TwoChoices, c *config.Config, r *rng.RNG, sparse bool) int {
	if !sparse {
		return tc.stepDense(c, r)
	}
	counts := c.CountsView()
	n, sumSq, _ := tc.prefixSums(counts)
	return tc.stepSparse(counts, n, sumSq, r)
}

// TestTwoChoicesLawsAgreeOneRound checks that the sparse and the dense
// law draw the same one-round law. From fixed many-color starts, each law
// steps fresh copies many times; at eight slots spread over each start,
// the next counts must be indistinguishable (two-sample KS, and
// chi-square on the change clamped to [-2, 2]) at
// stats.DefaultEquivalenceAlpha, and each law's switcher total T must
// have the Bin(n, S) mean nS and variance nS(1−S) within six standard
// errors. Seeded, so deterministic.
func TestTwoChoicesLawsAgreeOneRound(t *testing.T) {
	const reps = 3000
	starts := []struct {
		name string
		c    *config.Config
	}{
		{"balanced n=512 k=128", config.Balanced(512, 128)}, // nS = 4
		{"zipf n=600 k=40", config.Zipf(600, 40, 1)},        // skewed
		{"singleton n=300", config.Singleton(300)},          // nS = 1
	}
	for _, st := range starts {
		t.Run(st.name, func(t *testing.T) {
			start := st.c
			n, k := start.N(), start.Slots()
			sumSq := 0
			for _, ci := range start.CountsView() {
				sumSq += ci * ci
			}
			s := float64(sumSq) / float64(n*n)

			collect := func(sparse bool, seed uint64) (next [][]float64, switchers []float64) {
				tc := NewTwoChoices()
				r := rng.New(seed)
				next = make([][]float64, k)
				for rep := 0; rep < reps; rep++ {
					c := start.Clone()
					m := stepLaw(tc, c, r, sparse)
					if err := c.CheckInvariant(); err != nil {
						t.Fatalf("sparse=%v rep %d: %v", sparse, rep, err)
					}
					for i, ci := range c.CountsView() {
						next[i] = append(next[i], float64(ci))
					}
					switchers = append(switchers, float64(m))
				}
				return next, switchers
			}
			sparseNext, sparseT := collect(true, 7_000)
			denseNext, denseT := collect(false, 8_000)

			for j := 0; j < 8; j++ {
				i := j * k / 8
				ks, err := stats.TwoSampleKS(sparseNext[i], denseNext[i])
				if err != nil {
					t.Fatal(err)
				}
				if !ks.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
					t.Errorf("slot %d: next-count distributions differ sparse vs dense: D=%.3f p=%.2g", i, ks.D, ks.P)
				}
				c0 := start.Count(i)
				chi, err := stats.ChiSquareHomogeneity(changeTally(sparseNext[i], c0), changeTally(denseNext[i], c0))
				if err != nil {
					t.Fatal(err)
				}
				if !chi.IndistinguishableAt(stats.DefaultEquivalenceAlpha) {
					t.Errorf("slot %d: count changes differ sparse vs dense: stat=%.2f p=%.2g", i, chi.Stat, chi.P)
				}
			}

			// Bin(n, S): mean nS, variance nS(1−S), fourth central moment
			// μ4 = nS(1−S)(1 + 3(n−2)S(1−S)).
			mean, variance := float64(n)*s, float64(n)*s*(1-s)
			mu4 := variance * (1 + 3*float64(n-2)*s*(1-s))
			for _, law := range []struct {
				name string
				ts   []float64
			}{{"sparse", sparseT}, {"dense", denseT}} {
				sum := stats.Summarize(law.ts)
				if se := math.Sqrt(variance / reps); math.Abs(sum.Mean-mean) > 6*se {
					t.Errorf("%s: mean switchers %.4f, want nS = %.4f (±%.4f)", law.name, sum.Mean, mean, 6*se)
				}
				if se := math.Sqrt((mu4 - variance*variance) / reps); math.Abs(sum.Var-variance) > 6*se {
					t.Errorf("%s: switcher variance %.4f, want nS(1−S) = %.4f (±%.4f)", law.name, sum.Var, variance, 6*se)
				}
			}
		})
	}
}

// TestTwoChoicesLawsMatchExactLaw compares both laws with the exact
// one-round law on starts small enough to enumerate: every node of color i
// moves to color j with probability x_j² + [i = j](1 − S), independently.
// The sparse law's leaver rejection is busiest here, where a round moves
// a third of the nodes or more. A dead slot must stay dead. Chi-square
// goodness of fit over the next-count vectors, outcomes expected fewer
// than five times pooled, at stats.DefaultEquivalenceAlpha.
func TestTwoChoicesLawsMatchExactLaw(t *testing.T) {
	const reps = 20_000
	for _, counts := range [][]int{{2, 1, 1}, {3, 2, 0, 1}, {1, 1, 1, 1, 1}} {
		start, err := config.New(counts)
		if err != nil {
			t.Fatal(err)
		}
		exact := exactTwoChoicesLaw(counts)
		keys := make([]int, 0, len(exact))
		for key := range exact {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for _, sparse := range []bool{true, false} {
			tc := NewTwoChoices()
			r := rng.New(11)
			observed := make(map[int]int)
			for rep := 0; rep < reps; rep++ {
				c := start.Clone()
				stepLaw(tc, c, r, sparse)
				key := countsKey(c.CountsView(), start.N())
				if exact[key] == 0 {
					t.Fatalf("%v sparse=%v: impossible next counts %v", counts, sparse, c.CountsView())
				}
				observed[key]++
			}
			stat, cats, pooledObs, pooledExp := 0.0, 0, 0, 0.0
			for _, key := range keys {
				if e := exact[key] * reps; e < 5 {
					pooledObs += observed[key]
					pooledExp += e
				} else {
					d := float64(observed[key]) - e
					stat += d * d / e
					cats++
				}
			}
			if pooledExp > 0 {
				d := float64(pooledObs) - pooledExp
				stat += d * d / pooledExp
				cats++
			}
			if p := stats.ChiSquareSF(stat, cats-1); p < stats.DefaultEquivalenceAlpha {
				t.Errorf("%v sparse=%v: next counts depart from the exact law: stat=%.2f df=%d p=%.2g",
					counts, sparse, stat, cats-1, p)
			}
		}
	}
}

// exactTwoChoicesLaw enumerates every node's next color and returns the
// probability of each next-count vector, keyed by countsKey.
func exactTwoChoicesLaw(counts []int) map[int]float64 {
	n, s := 0, 0.0
	for _, ci := range counts {
		n += ci
	}
	for _, ci := range counts {
		s += float64(ci*ci) / float64(n*n)
	}
	var colors []int
	for i, ci := range counts {
		for j := 0; j < ci; j++ {
			colors = append(colors, i)
		}
	}
	law := make(map[int]float64)
	next := make([]int, len(counts))
	var walk func(node int, p float64)
	walk = func(node int, p float64) {
		if node == len(colors) {
			law[countsKey(next, n)] += p
			return
		}
		for j, cj := range counts {
			q := float64(cj*cj) / float64(n*n)
			if j == colors[node] {
				q += 1 - s
			}
			if q == 0 {
				continue
			}
			next[j]++
			walk(node+1, p*q)
			next[j]--
		}
	}
	walk(0, 1)
	return law
}

// countsKey encodes a count vector over n nodes as one integer.
func countsKey(counts []int, n int) int {
	key := 0
	for _, ci := range counts {
		key = key*(n+1) + ci
	}
	return key
}

// changeTally counts next − c0 over the samples, clamped to [-2, 2].
func changeTally(next []float64, c0 int) []int {
	tally := make([]int, 5)
	for _, x := range next {
		d := int(x) - c0
		tally[min(max(d, -2), 2)+2]++
	}
	return tally
}

// TestSparseStepChoice pins the cost-based law choice on the paper's
// starts: the n-color start moves about one node a round and takes the
// sparse law; balanced starts with few colors (E8's) move thousands of
// nodes and keep the dense law, as does any n past the Σc² overflow
// guard.
func TestSparseStepChoice(t *testing.T) {
	choose := func(c *config.Config) bool {
		n, sumSq, live := NewTwoChoices().prefixSums(c.CountsView())
		return sparseStep(n, live, sumSq)
	}
	cases := []struct {
		name   string
		c      *config.Config
		sparse bool
	}{
		{"singleton n=20000", config.Singleton(20_000), true},
		{"balanced n=16384 k=2", config.Balanced(16_384, 2), false},
		{"balanced n=16384 k=8", config.Balanced(16_384, 8), false},
		{"balanced n=16384 k=32", config.Balanced(16_384, 32), false},
		// nS = 128 switchers over 128 live colors.
		{"balanced n=16384 k=128", config.Balanced(16_384, 128), true},
	}
	for _, tc := range cases {
		if got := choose(tc.c); got != tc.sparse {
			t.Errorf("%s: sparseStep = %v, want %v", tc.name, got, tc.sparse)
		}
	}
	// Σc² <= n² must fit an int: n = 3 037 000 499 is the last population
	// the sparse law may take, with every node its own color.
	for _, n := range []int{maxSparseN, maxSparseN + 1} {
		if got, want := sparseStep(n, n, n), n == maxSparseN; got != want {
			t.Errorf("n=%d: sparseStep = %v, want %v", n, got, want)
		}
	}
}

// TestTwoChoicesStepTakesSparseLaw checks that Step, not only the
// predicate, takes the sparse law from many colors and the dense law from
// few: the dense scratch stays unallocated until a dense round.
func TestTwoChoicesStepTakesSparseLaw(t *testing.T) {
	tc := NewTwoChoices()
	r := rng.New(9)
	c := config.Singleton(4096)
	for i := 0; i < 20; i++ {
		tc.Step(c, r)
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if tc.keepers != nil {
		t.Error("many-color rounds allocated the dense scratch")
	}
	tc.Step(config.Balanced(4096, 8), r)
	if tc.keepers == nil {
		t.Error("an 8-color round did not take the dense law")
	}
}
