package sim

import (
	"fmt"
	"testing"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
)

// newBenchAgentsState builds a steady agents-round stepper outside runLoop,
// so benchmarks and allocation tests can drive isolated rounds.
func newBenchAgentsState(tb testing.TB, n, k, p int) *agentsState {
	tb.Helper()
	o, err := buildOptions([]Option{WithParallelism(p)})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := newAgentsState(rules.NewThreeMajority(), nil, config.Balanced(n, k), rng.New(1), o)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// BenchmarkRoundAgentsParallel sweeps the shard count over one agents
// round at n=100k, k=8, 3-Majority: the steady-state hot path the
// BENCH_PR2.json speedup curves record.
func BenchmarkRoundAgentsParallel(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			st := newBenchAgentsState(b, 100_000, 8, p)
			defer st.close()
			st.step(0) // warm the scratch to steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.step(i)
			}
		})
	}
}

// TestAgentsRoundZeroSteadyStateAllocs: after warm-up, an agents round must
// not allocate — the sample buffers and shard tallies are reused in place
// and the round pulls straight from the previous node array. Each measured
// step runs agentsShardRound and its pullChunk fills over every shard (the
// //consensus:hotpath round body).
func TestAgentsRoundZeroSteadyStateAllocs(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			st := newBenchAgentsState(t, 4096, 8, p)
			defer st.close()
			for i := 0; i < 5; i++ {
				st.step(i) // reach steady state
			}
			if avg := testing.AllocsPerRun(50, func() { st.step(0) }); avg != 0 {
				t.Errorf("agents round allocates %.2f times per round at p=%d, want 0", avg, p)
			}
		})
	}
}

// TestAgentsHeteroRoundZeroSteadyStateAllocs: same contract for the
// heterogeneous behavior path — each measured step runs
// agentsShardRoundHetero (the //consensus:hotpath round body that
// dispatches per-group rules, stubborn holds and join rounds) over every
// shard, and must stay allocation-free once warm.
func TestAgentsHeteroRoundZeroSteadyStateAllocs(t *testing.T) {
	voter := func() core.Rule { return rules.NewVoter() }
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			o, err := buildOptions([]Option{
				WithParallelism(p),
				WithNodeBehaviors(blockAssign(2048, 1024, 512, 512),
					[]NodeBehavior{{}, {Factory: voter}, {Stubborn: true}, {JoinRound: 1 << 20}}),
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := newAgentsState(rules.NewThreeMajority(), nil, config.Balanced(4096, 8), rng.New(1), o)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			for i := 0; i < 5; i++ {
				st.step(i)
			}
			if avg := testing.AllocsPerRun(50, func() { st.step(0) }); avg != 0 {
				t.Errorf("hetero agents round allocates %.2f times per round at p=%d, want 0", avg, p)
			}
		})
	}
}

// TestGraphRoundZeroSteadyStateAllocs: same contract for the graph
// engine, whose //consensus:hotpath round body is graphShardRound.
func TestGraphRoundZeroSteadyStateAllocs(t *testing.T) {
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			o, err := buildOptions([]Option{WithParallelism(p)})
			if err != nil {
				t.Fatal(err)
			}
			start := config.Balanced(2048, 8)
			c := start.Clone()
			st, err := newGraphState(rules.NewThreeMajority(), nil, graph.NewComplete(2048), c, c.Nodes(), rng.New(1), o)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			for i := 0; i < 5; i++ {
				st.step(i)
			}
			if avg := testing.AllocsPerRun(50, func() { st.step(0) }); avg != 0 {
				t.Errorf("graph round allocates %.2f times per round at p=%d, want 0", avg, p)
			}
		})
	}
}
