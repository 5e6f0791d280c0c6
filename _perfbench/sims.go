package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/ignorecomply/consensus"
)

// simRun is one Runner configuration of a simulation workload.
type simRun struct {
	name   string // run id and metric suffix
	rule   func() consensus.Rule
	start  *consensus.Config
	opts   []consensus.Option
	rounds int // round budget; 0 runs to consensus
	// replicas runs the configuration at this many seeds derived from the
	// workload seed.
	replicas int
	seed     uint64
	// op marks the run whose rounds are the workload's primary operation.
	op bool

	// Filled by the traced units.
	steps        []float64 // batch Step durations, µs
	live         int64     // Σ live colors over the traced Steps
	roundMs      []float64 // per-round wall (observer to observer), ms
	updates      int64     // per-node Update calls
	messages     int64
	tracedRounds int64
}

// simWorkload runs a fixed list of Runner configurations per unit.
type simWorkload struct {
	runs []*simRun
}

// perNodeRule is a rule with both the batch and the per-node view.
type perNodeRule interface {
	consensus.Rule
	Samples() int
	Update(own int, samples []int, r *consensus.RNG) int
}

// tracedRule wraps a rule for the traced units: every batch Step becomes a
// span, and per-node Update calls are counted.
type tracedRule struct {
	perNodeRule
	tr      *tracer
	run     *simRun
	runID   string
	parent  int
	updates int64
}

func (t *tracedRule) Step(c *consensus.Config, r *consensus.RNG) {
	t0 := time.Now()
	t.run.live += int64(c.Remaining())
	t1 := time.Now()
	t.perNodeRule.Step(c, r)
	d := time.Since(t1)
	t.tr.add("trace.live_colors", t.runID, t.parent, t0, t1.Sub(t0))
	t.tr.add("rules.step", t.runID, t.parent, t1, d)
	t.run.steps = append(t.run.steps, float64(d)/float64(time.Microsecond))
}

func (t *tracedRule) Update(own int, samples []int, r *consensus.RNG) int {
	t.updates++
	return t.perNodeRule.Update(own, samples, r)
}

// The simulation sizes keep each run's working set within a core's L2
// cache (about 1 MB at these n): on a shared VM, loops over LLC- or
// RAM-resident arrays slowed by up to 5× and ±30% with the neighbours'
// load, while L2-resident ones held within about 10%. The budgets keep a
// unit near 0.2 s, short against the host's spells of either speed (see
// timed), so a run times many units.
const (
	manyColorsN    = 20_000
	twoChoicesBudg = 200
	threeMajReps   = 2
	perNodeN       = 20_000
	agentsBudget   = 150
	agentsReps     = 1
	clusterN       = 5_000
	clusterBudget  = 15
	clusterReps    = 2
)

// setupManyColors builds the n-color starts of the batch-engine runs:
// 2-Choices for a fixed budget (it needs thousands of rounds more to
// finish) and 3-Majority to consensus at several seeds.
func setupManyColors(_ context.Context, seed uint64, sz size) (instance, error) {
	n, r2, reps := manyColorsN, twoChoicesBudg, threeMajReps
	if sz == tiny {
		n, r2, reps = 2_000, 20, 2
	}
	return &simWorkload{runs: []*simRun{
		{
			name: "2-choices", rule: func() consensus.Rule { return consensus.NewTwoChoices() },
			start: consensus.SingletonConfig(n), rounds: r2, replicas: 1, seed: seed, op: true,
		},
		{
			name: "3-majority", rule: func() consensus.Rule { return consensus.NewThreeMajority() },
			start: consensus.SingletonConfig(n), replicas: reps, seed: seed,
		},
	}}, nil
}

// setupPerNode builds the per-node runs of 3-Majority with fixed round
// budgets, so every seed does nearly the same work: the agents engine from
// the n-color start, sharded over nproc workers, and the cluster event
// engine from balanced k = 8 under delay, jitter, 5% loss and pull
// retries. The cluster budget ends before consensus; the agents budget is
// about the consensus time at this n, and a run that converges first stops
// there.
func setupPerNode(_ context.Context, seed uint64, sz size) (instance, error) {
	n, ra, repsA, nc, rc, repsC := perNodeN, agentsBudget, agentsReps, clusterN, clusterBudget, clusterReps
	if sz == tiny {
		n, ra, repsA, nc, rc, repsC = 2_000, 10, 1, 1_000, 5, 1
	}
	p := runtime.NumCPU()
	threeMajority := func() consensus.Rule { return consensus.NewThreeMajority() }
	return &simWorkload{runs: []*simRun{
		{
			name: "agents", rule: threeMajority, start: consensus.SingletonConfig(n),
			rounds: ra, replicas: repsA, seed: seed, op: true,
			opts: []consensus.Option{consensus.WithEngine(consensus.EngineAgents), consensus.WithParallelism(p)},
		},
		{
			name: "cluster", rule: threeMajority, start: consensus.BalancedConfig(nc, 8),
			rounds: rc, replicas: repsC, seed: seed,
			opts: []consensus.Option{
				consensus.WithParallelism(p),
				consensus.WithNetwork(&consensus.Network{Delay: 1, Jitter: 2, Loss: 0.05, Retry: 2}),
			},
		},
	}}, nil
}

// pass is one unit: every run of the workload.
func (w *simWorkload) pass() int { return 1 }

func (w *simWorkload) unit(ctx context.Context, _ int, tr *tracer, u *unitResult) error {
	for _, sr := range w.runs {
		for i := 0; i < sr.replicas; i++ {
			if err := w.runOne(ctx, tr, u, sr, sr.seed*1000+uint64(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *simWorkload) runOne(ctx context.Context, tr *tracer, u *unitResult, sr *simRun, seed uint64) error {
	u.attempted++
	runID := fmt.Sprintf("%s/seed%d", sr.name, seed)
	root := tr.begin("sim.run."+sr.name, runID, 0)
	var mu sync.Mutex
	var wrappers []*tracedRule
	factory := sr.rule
	if tr != nil {
		factory = func() consensus.Rule {
			t := &tracedRule{perNodeRule: sr.rule().(perNodeRule), tr: tr, run: sr, runID: runID, parent: root}
			mu.Lock()
			wrappers = append(wrappers, t)
			mu.Unlock()
			return t
		}
	}
	opts := append([]consensus.Option{consensus.WithSeed(seed)}, sr.opts...)
	if sr.rounds > 0 {
		opts = append(opts, consensus.WithMaxRounds(sr.rounds))
	}
	var last time.Time
	if sr.op || tr != nil {
		opts = append(opts, consensus.WithObserver(func(round int, _ *consensus.Config) {
			now := time.Now()
			if round > 0 {
				d := now.Sub(last)
				if sr.op {
					u.ops = append(u.ops, ms(d))
				}
				if tr != nil {
					sr.roundMs = append(sr.roundMs, ms(d))
				}
			}
			last = now
		}))
	}
	// Each run starts from a collected heap, as it would in a process of
	// its own, so peak_heap_mb does not depend on an earlier run's garbage.
	runtime.GC()
	res, err := consensus.NewFactoryRunner(factory, opts...).Run(ctx, sr.start)
	tr.end(root)
	if err != nil {
		return fmt.Errorf("%s: %w", sr.name, err)
	}
	checkRun(u, sr, res)
	u.count(sr.name+".rounds", res.Rounds)
	u.count(sr.name+".colors", res.Final.Remaining())
	u.count(sr.name+".winner", res.WinnerLabel)
	u.count(sr.name+".messages", res.Messages)
	if tr != nil {
		for _, t := range wrappers {
			sr.updates += t.updates
		}
		sr.tracedRounds += int64(res.Rounds)
		sr.messages += res.Messages
	}
	return nil
}

// checkRun checks that a run reached its stop condition — its round
// budget, or consensus when it has none — that the final counts sum to n,
// and that the winner is a valid color.
func checkRun(u *unitResult, sr *simRun, res *consensus.Result) {
	n := sr.start.N()
	switch {
	case sr.rounds == 0 && !res.Converged:
		u.failf("%s: no consensus after %d rounds", sr.name, res.Rounds)
	case sr.rounds > 0 && !res.Converged && res.Rounds != sr.rounds:
		u.failf("%s: stopped after %d of %d rounds", sr.name, res.Rounds, sr.rounds)
	}
	sum := 0
	for _, c := range res.Final.CountsView() {
		sum += c
	}
	if sum != n || res.Final.N() != n {
		u.failf("%s: final counts sum to %d, want n = %d", sr.name, sum, n)
	}
	if !res.WinnerValid || res.WinnerLabel < 0 || res.WinnerLabel >= sr.start.Slots() {
		u.failf("%s: invalid winner %d", sr.name, res.WinnerLabel)
	}
	if res.Converged && res.Final.Remaining() != 1 {
		u.failf("%s: converged with %d colors", sr.name, res.Final.Remaining())
	}
}

func (w *simWorkload) layers(tr *tracer, m metricSet) {
	passes := float64(tr.counter("passes"))
	for _, sr := range w.runs {
		runS := tr.sum("sim.run." + sr.name)
		switch sr.name {
		case "2-choices", "3-majority":
			stepS := 0.0
			for _, s := range sr.steps {
				stepS += s / 1e6
			}
			m.set("rules.step_s."+sr.name, stepS/passes)
			m.set("rules.step_us_p50."+sr.name, quantile(sr.steps, 0.5))
			m.set("rules.step_us_p99."+sr.name, quantile(sr.steps, 0.99))
			m.set("rules.ns_per_live_color."+sr.name, stepS*1e9/float64(sr.live))
			add(m, "sim.rounds", float64(len(sr.steps))/passes)
			add(m, "sim.live_color_rounds", float64(sr.live)/passes)
			add(m, "sim.loop_self_s", tr.selfSum("sim.run."+sr.name)/passes)
		case "agents":
			m.set("sim.agents_round_ms_p50", quantile(sr.roundMs, 0.5))
			m.set("sim.agents_round_ms_p90", quantile(sr.roundMs, 0.9))
			m.set("sim.agents_rounds", float64(sr.tracedRounds)/passes)
			m.set("rules.update_calls", float64(sr.updates)/passes)
			m.set("sim.agents_ns_per_node_round", runS*1e9/float64(sr.tracedRounds*int64(sr.start.N())))
		case "cluster":
			h := float64(sr.rule().(perNodeRule).Samples())
			m.set("cluster.round_ms_p50", quantile(sr.roundMs, 0.5))
			m.set("cluster.round_ms_p90", quantile(sr.roundMs, 0.9))
			m.set("cluster.rounds", float64(sr.tracedRounds)/passes)
			m.set("cluster.messages", float64(sr.messages)/passes)
			m.set("cluster.ns_per_message", runS*1e9/float64(sr.messages))
			m.set("cluster.useful_message_ratio", 2*float64(sr.start.N())*h*float64(sr.tracedRounds)/float64(sr.messages))
		}
	}
}

// add accumulates into a metric shared by several runs.
func add(m metricSet, name string, v float64) { m.set(name, m[name].Value+v) }

func (w *simWorkload) close() {}
