package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/ignorecomply/consensus/internal/adversary"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/graph"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/rules"
)

// TestAgentsNodesTallyToCounts: the agents engine pulls colors from the
// node array, not from the counts, so the two must agree at every round
// boundary — after the round's merge and after the §5 corruption has been
// reconciled onto concrete nodes. Covered: the sequential and the sharded
// path, an InjectInvalid adversary that grows the slot space mid-run, and
// stubborn and late-joining node groups.
func TestAgentsNodesTallyToCounts(t *testing.T) {
	cases := []struct {
		name  string
		start *config.Config
		opts  []Option
	}{
		{name: "many-colors", start: config.Singleton(512)},
		{name: "inject-invalid", start: config.Balanced(600, 3),
			opts: []Option{WithAdversary(&adversary.InjectInvalid{F: 4}, 0.1, 10), WithMaxRounds(60)}},
		{name: "stubborn+late-join", start: config.Balanced(600, 4),
			opts: []Option{WithMaxRounds(60), WithNodeBehaviors(blockAssign(400, 100, 100),
				[]NodeBehavior{{}, {Stubborn: true}, {JoinRound: 20}})}},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				var st *agentsState
				rounds := 0
				check := func(round int, c *config.Config) {
					rounds++
					if err := c.CheckInvariant(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					if got, want := recount(st.nodes, c.Slots()), c.CountsView(); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: node array tallies to %v, counts are %v", round, got, want)
					}
				}
				o, err := buildOptions(append([]Option{WithParallelism(p), WithObserver(check)}, tc.opts...))
				if err != nil {
					t.Fatal(err)
				}
				o.compactEvery = 0
				r := rng.New(17)
				st, err = newAgentsState(rules.NewThreeMajority(), threeMajorityFactory, tc.start, r, o)
				if err != nil {
					t.Fatal(err)
				}
				defer st.close()
				// runAgents' wiring, with st in reach of the observer.
				res, err := runLoop(st.c, r, o, func(round int) int {
					st.step(round)
					return 1
				}, func() *config.Config { return st.c }, func() []int { return st.nodes })
				if err != nil {
					t.Fatal(err)
				}
				if rounds != res.Rounds+1 {
					t.Fatalf("observer saw %d round boundaries, want %d", rounds, res.Rounds+1)
				}
				if tc.name == "inject-invalid" && res.Final.Slots() != tc.start.Slots()+1 {
					t.Fatalf("slot space %d, want the injected slot on top of %d", res.Final.Slots(), tc.start.Slots())
				}
			})
		}
	}
}

// TestAgentsMatchesCompleteGraphBitExact: a uniform node pull is the graph
// engine's regular-topology pull on the complete graph (self-loops
// included), and both engines draw the same batched node indices from the
// same streams, so for a fixed (seed, p) the two runs are identical, not
// just equal in distribution.
func TestAgentsMatchesCompleteGraphBitExact(t *testing.T) {
	start := config.Balanced(300, 5)
	factories := map[string]core.Factory{
		"voter":      func() core.Rule { return rules.NewVoter() },
		"3-majority": threeMajorityFactory,
		"2-choices":  func() core.Rule { return rules.NewTwoChoices() },
	}
	for name, f := range factories {
		for _, p := range []int{1, 2} {
			run := func(opt Option) *Result {
				res, err := NewFactoryRunner(f, opt, WithParallelism(p), WithSeed(5), WithTrace(1), WithMaxRounds(2000)).
					Run(context.Background(), start)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, g := run(WithEngine(EngineAgents)), run(WithGraph(graph.NewComplete(start.N())))
			if a.Rounds != g.Rounds || a.WinnerLabel != g.WinnerLabel || !reflect.DeepEqual(a.Trace, g.Trace) {
				t.Errorf("%s p=%d: agents (rounds=%d winner=%d) != complete graph (rounds=%d winner=%d)",
					name, p, a.Rounds, a.WinnerLabel, g.Rounds, g.WinnerLabel)
			}
		}
	}
}
