package sim

import (
	"errors"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// RunAgents executes a per-node rule (core.NodeRule) on an explicit
// population of n node states, the direct simulation of the paper's model:
// every node pulls Samples() uniformly random nodes (with replacement,
// self included) and applies its update synchronously.
//
// This engine is O(n · samples) per round; it exists to validate the O(k)
// batch laws (core.Rule) against the literal per-node semantics, and to run
// rules whose batch law the caller does not trust. Slots are never
// compacted here, so slot indices are stable for the whole run.
//
// With an explicit WithParallelism(p > 1) the round is sharded across p
// worker goroutines that share the single rule instance, so the rule's
// Update must be safe for concurrent calls (every built-in rule is);
// without the option this entry point stays sequential. Use a factory
// Runner for one rule instance per shard and GOMAXPROCS sharding by
// default.
//
// Deprecated: build a Runner with WithEngine(EngineAgents) instead;
// RunAgents remains as the agents-engine compatibility entry point.
func RunAgents(rule core.NodeRule, start *config.Config, r *rng.RNG, opts ...Option) (*Result, error) {
	if rule == nil || start == nil || r == nil {
		return nil, errors.New("sim: rule, start and rng must be non-nil")
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return runAgents(rule, nil, start, r, o)
}

// agentsState is the engine room of one agents run: the population arrays
// and, when sharded, the worker pool with per-shard rule instances, random
// streams and strided sample buffers.
type agentsState struct {
	c     *config.Config
	nodes []int // current per-node slot assignment
	next  []int
	h     int // samples per node (the max over groups when heterogeneous)

	// Sequential path (p == 1): the run's own stream, chunk buffer and
	// next-count tally.
	rule  core.NodeRule
	r     *rng.RNG
	buf   []int // sampleChunk·h strided sample buffer
	tally []int

	// Sharded path (p > 1).
	pool *shardPool

	// Heterogeneous population (WithNodeBehaviors), nil otherwise.
	behav *behaviorRT
	round int // current round, set by step before the shard dispatch
}

// behaviorRT is the runtime form of a behavior table: flat per-group
// arrays indexed by group, plus per-shard per-group rule instances.
type behaviorRT struct {
	assign   []int
	stubborn []bool
	join     []int
	hs       []int             // per-group sample count (<= agentsState.h)
	rules    [][]core.NodeRule // [shard][group]
}

// newBehaviorRT resolves a behavior table for p shards: every group gets
// one rule instance per shard (its own factory, or the run's rule with the
// same per-shard instancing contract as newShardSetup). The returned h is
// the max sample count over the groups; every node's h samples are drawn
// regardless of its group, so random-stream consumption is independent of
// the group layout.
func newBehaviorRT(b *behaviors, rule core.NodeRule, factory core.Factory, p int, e Engine) (*behaviorRT, int, error) {
	rt := &behaviorRT{
		assign:   b.assign,
		stubborn: make([]bool, len(b.groups)),
		join:     make([]int, len(b.groups)),
		hs:       make([]int, len(b.groups)),
		rules:    make([][]core.NodeRule, p),
	}
	for s := 0; s < p; s++ {
		rt.rules[s] = make([]core.NodeRule, len(b.groups))
		for g, bg := range b.groups {
			switch {
			case bg.Factory != nil:
				made := bg.Factory()
				if made == nil {
					return nil, 0, errors.New("sim: behavior group factory returned a nil rule")
				}
				nr, err := asNodeRule(made, e)
				if err != nil {
					return nil, 0, err
				}
				rt.rules[s][g] = nr
			case s == 0 || factory == nil:
				rt.rules[s][g] = rule
			default:
				nr, err := asNodeRule(factory(), e)
				if err != nil {
					return nil, 0, err
				}
				rt.rules[s][g] = nr
			}
		}
	}
	h := 0
	for g, bg := range b.groups {
		rt.stubborn[g] = bg.Stubborn
		rt.join[g] = bg.JoinRound
		rt.hs[g] = rt.rules[0][g].Samples()
		if rt.hs[g] > h {
			h = rt.hs[g]
		}
	}
	return rt, h, nil
}

// newAgentsState builds the run state. factory, when non-nil, provides a
// fresh rule instance per shard; otherwise all shards share rule.
func newAgentsState(rule core.NodeRule, factory core.Factory, start *config.Config, r *rng.RNG, o options) (*agentsState, error) {
	c := start.Clone()
	st := &agentsState{
		c:     c,
		nodes: c.Nodes(),
		next:  make([]int, c.N()),
		h:     rule.Samples(),
		rule:  rule,
		r:     r,
	}
	p := o.shardCount(c.N(), factory)
	if o.behaviors != nil {
		if err := o.behaviors.validate(c.N()); err != nil {
			return nil, err
		}
		rt, h, err := newBehaviorRT(o.behaviors, rule, factory, p, o.engine)
		if err != nil {
			return nil, err
		}
		st.behav = rt
		st.h = h
	}
	if p == 1 {
		st.buf = make([]int, sampleChunk*st.h)
		return st, nil
	}

	if st.behav != nil {
		factory = nil // the behavior table holds the per-shard rules
	}
	su, err := newShardSetup(rule, factory, p, st.h, o.engine, r)
	if err != nil {
		return nil, err
	}
	st.pool = newShardPool(c.N(), p, func(s, lo, hi int, tally []int) {
		if st.behav != nil {
			agentsShardRoundHetero(st, st.behav.rules[s], su.streams[s], su.bufs[s], lo, hi, tally)
		} else {
			agentsShardRound(st, su.rules[s], su.streams[s], su.bufs[s], lo, hi, tally)
		}
	})
	return st, nil
}

// pullChunk fills chunk with the colors of uniform node pulls (with
// replacement, self included) from the previous round's node array.
//
//consensus:hotpath
func pullChunk(nodes []int, r *rng.RNG, chunk []int) {
	r.FillIntN(len(nodes), chunk)
	for j, v := range chunk {
		chunk[j] = nodes[v]
	}
}

// agentsShardRound runs one round over the node range [lo, hi): it pulls
// the strided sample buffer one chunk of nodes at a time, applies the
// per-node updates, and tallies the next-state counts in the same pass.
//
//consensus:hotpath
func agentsShardRound(st *agentsState, rule core.NodeRule, r *rng.RNG, buf []int, lo, hi int, tally []int) {
	h := st.h
	for base := lo; base < hi; base += sampleChunk {
		end := base + sampleChunk
		if end > hi {
			end = hi
		}
		chunk := buf[:(end-base)*h]
		pullChunk(st.nodes, r, chunk)
		for i := base; i < end; i++ {
			samples := chunk[(i-base)*h : (i-base+1)*h]
			nxt := rule.Update(st.nodes[i], samples, r)
			st.next[i] = nxt
			tally[nxt]++
		}
	}
}

// agentsShardRoundHetero is agentsShardRound for a heterogeneous
// population: every node's st.h samples are drawn exactly as in the
// homogeneous path (so the random streams are consumed identically
// whatever the group layout), then each node applies its group's rule on
// its group's sample-count prefix — or holds its opinion when the group is
// stubborn or has not joined yet. Held nodes still occupy the
// configuration, so everyone keeps sampling them.
//
//consensus:hotpath
func agentsShardRoundHetero(st *agentsState, rules []core.NodeRule, r *rng.RNG, buf []int, lo, hi int, tally []int) {
	h := st.h
	b := st.behav
	round := st.round
	for base := lo; base < hi; base += sampleChunk {
		end := base + sampleChunk
		if end > hi {
			end = hi
		}
		chunk := buf[:(end-base)*h]
		pullChunk(st.nodes, r, chunk)
		for i := base; i < end; i++ {
			g := b.assign[i]
			nxt := st.nodes[i]
			if !b.stubborn[g] && round >= b.join[g] {
				off := (i - base) * h
				nxt = rules[g].Update(nxt, chunk[off:off+b.hs[g]], r)
			}
			st.next[i] = nxt
			tally[nxt]++
		}
	}
}

// step advances the population by one synchronous round. The round's
// immutable snapshot is the previous node array itself: every node (in
// every shard) pulls from st.nodes and writes st.next, and the two swap at
// the barrier.
//
//consensus:hotpath
func (st *agentsState) step(round int) {
	st.round = round
	counts := st.c.CountsView()
	if st.pool == nil {
		st.tally = resizeInts(st.tally, len(counts))
		clear(st.tally)
		if st.behav != nil {
			agentsShardRoundHetero(st, st.behav.rules[0], st.r, st.buf, 0, len(st.nodes), st.tally)
		} else {
			agentsShardRound(st, st.rule, st.r, st.buf, 0, len(st.nodes), st.tally)
		}
		st.nodes, st.next = st.next, st.nodes
		copy(counts, st.tally)
		return
	}
	st.pool.step(len(counts))
	st.nodes, st.next = st.next, st.nodes
	st.pool.merge(counts)
}

// close releases the worker pool, if any.
func (st *agentsState) close() {
	if st.pool != nil {
		st.pool.close()
	}
}

func runAgents(rule core.NodeRule, factory core.Factory, start *config.Config, r *rng.RNG, o options) (*Result, error) {
	o.compactEvery = 0 // node states refer to slot indices; never renumber

	st, err := newAgentsState(rule, factory, start, r, o)
	if err != nil {
		return nil, err
	}
	defer st.close()
	return runLoop(st.c, r, o, func(round int) int {
		st.step(round)
		return 1
	}, func() *config.Config { return st.c }, func() []int { return st.nodes })
}
