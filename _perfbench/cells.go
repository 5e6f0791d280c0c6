package main

import (
	"context"
	"fmt"
	"time"

	"github.com/ignorecomply/consensus"
	"github.com/ignorecomply/consensus/internal/analytic"
	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/serve"
	"github.com/ignorecomply/consensus/scenario"
)

// sink keeps the cells' results live so the compiler cannot drop the
// measured calls.
var sink int

// layerCells measures single layers on inputs shaped like the workloads.
// Every traced run reports them.
func layerCells(ctx context.Context, seed uint64, sz size, m metricSet) error {
	rngCells(seed, m)
	alphaCells(m)
	if err := hMajorityCells(ctx, seed, sz, m); err != nil {
		return err
	}
	return serviceCells(seed, m)
}

// rngCells times the samplers the engines draw from.
func rngCells(seed uint64, m metricSet) {
	r := rng.New(seed)
	// 2-Choices from the n-color start keeps each singleton color with
	// probability 1 - Σx² ≈ 1 - 1/n: Binomial(1, 1-1/n), the inversion
	// regime.
	m.set("rng.binomial_inv_ns", cell(1000, func() {
		for i := 0; i < 1000; i++ {
			sink += r.Binomial(1, 1-1.0/manyColorsN)
		}
	}))
	// 3-Majority's Mult(n, α) once few colors are left.
	m.set("rng.binomial_btrs_ns", cell(1000, func() {
		for i := 0; i < 1000; i++ {
			sink += r.Binomial(manyColorsN, 0.3)
		}
	}))
	const k = 10_000
	probs := make([]float64, k)
	counts := make([]int, k)
	for i := range probs {
		probs[i] = 1.0 / k
		counts[i] = perNodeN / k
	}
	out := make([]int, k)
	m.set("rng.multinomial_ns_per_cat", cell(k, func() { r.Multinomial(manyColorsN, probs, out) }))
	// The agents engine rebuilds its alias table over the live colors every
	// round and draws every node's samples from it.
	alias := rng.NewAliasCounts(counts)
	m.set("rng.alias_reset_ns_per_cat", cell(k, func() { alias.ResetCounts(counts) }))
	m.set("rng.alias_draw_ns", cell(1000, func() {
		for i := 0; i < 1000; i++ {
			sink += alias.Draw(r)
		}
	}))
	dst := make([]int, 1024)
	m.set("rng.fillintn_ns", cell(len(dst), func() { r.FillIntN(perNodeN, dst) }))
}

// alphaSupports are the live-color counts of the α-enumeration cells: the
// range h = 6 enumerates under the batch law's term cutoff (E09's regime).
var alphaSupports = []int{4, 8, 16}

// alphaCells times the h-Majority process function at h = 6 over k
// uniform colors, and reports its term count.
func alphaCells(m metricSet) {
	const h = 6
	for _, k := range alphaSupports {
		x := make([]float64, k)
		for i := range x {
			x[i] = 1 / float64(k)
		}
		out := make([]float64, k)
		var e analytic.AlphaEnumerator
		m.set(fmt.Sprintf("analytic.alpha_enum_us.k%d", k), cell(1, func() {
			if e.Alpha(x, h, out) != nil {
				panic("perfbench: α enumeration rejected a supported input")
			}
		})/1e3)
		m.set(fmt.Sprintf("analytic.alpha_terms.k%d", k), float64(analytic.HMajorityTerms(h, k, analytic.MaxEnumerationTerms)))
	}
}

// stepTimer wraps a batch rule and sums its Step time.
type stepTimer struct {
	consensus.Rule
	total time.Duration
	steps int
}

func (s *stepTimer) Step(c *consensus.Config, r *consensus.RNG) {
	t := time.Now()
	s.Rule.Step(c, r)
	s.total += time.Since(t)
	s.steps++
}

// hMajorityCells runs E09's population (h = 6 from the n-color start, to
// consensus) on the batch law and on the per-node agents engine, and
// reports the mean time per round of each: the calibration pair for the
// batch law's enumeration cutoff.
func hMajorityCells(ctx context.Context, seed uint64, sz size, m metricSet) error {
	n, replicas := 1024, 3
	if sz == tiny {
		n, replicas = 128, 1
	}
	var batch stepTimer
	var agents time.Duration
	agentRounds := 0
	for i := 0; i < replicas; i++ {
		start := consensus.SingletonConfig(n)
		timer := &stepTimer{Rule: consensus.NewHMajority(6)}
		res, err := consensus.NewRunner(timer, consensus.WithSeed(seed+uint64(i))).Run(ctx, start)
		if err != nil || !res.Converged {
			return fmt.Errorf("h-majority batch cell: converged %v, %v", res != nil && res.Converged, err)
		}
		batch.total += timer.total
		batch.steps += timer.steps
		t := time.Now()
		res, err = consensus.NewRunner(consensus.NewHMajority(6), consensus.WithSeed(seed+uint64(i)),
			consensus.WithEngine(consensus.EngineAgents), consensus.WithParallelism(1)).Run(ctx, start)
		if err != nil || !res.Converged {
			return fmt.Errorf("h-majority agents cell: converged %v, %v", res != nil && res.Converged, err)
		}
		agents += time.Since(t)
		agentRounds += res.Rounds
	}
	m.set("rules.hmajority_batch_step_us", float64(batch.total.Microseconds())/float64(batch.steps))
	m.set("rules.hmajority_pernode_round_us", float64(agents.Microseconds())/float64(agentRounds))
	return nil
}

// serviceCells times what a serve-mix hit costs before the cache: decoding
// and canonical hashing of the cosmetically re-encoded request bodies, and
// the cache lookup itself.
func serviceCells(seed uint64, m metricSet) error {
	var docs [][]byte
	for _, id := range warmSet {
		d, err := readScenario(id)
		if err != nil {
			return err
		}
		docs = append(docs, d)
	}
	_, variants, err := servePlan(seed, docs)
	if err != nil {
		return err
	}
	var bodies [][]byte
	for _, v := range variants {
		bodies = append(bodies, v...)
	}
	specs := make([]*scenario.Scenario, len(bodies))
	for i, b := range bodies {
		if specs[i], err = scenario.DecodeBytes(b); err != nil {
			return err
		}
	}
	m.set("scenario.decode_us", cell(len(bodies), func() {
		for _, b := range bodies {
			if _, err := scenario.DecodeBytes(b); err != nil {
				panic(err)
			}
		}
	})/1e3)
	m.set("scenario.hash_us", cell(len(specs), func() {
		for _, s := range specs {
			if _, err := scenario.Hash(s); err != nil {
				panic(err)
			}
		}
	})/1e3)

	cache := serve.NewCache(64 << 20)
	keys := make([]serve.Key, len(docs))
	for i := range keys {
		keys[i] = serve.Key{Hash: fmt.Sprintf("%064x", i), Seed: seed, Scale: "quick"}
		cache.Put(keys[i], make([]byte, 4096))
	}
	m.set("serve.cache_get_ns", cell(len(keys), func() {
		for _, k := range keys {
			if _, ok := cache.Get(k); !ok {
				panic("perfbench: cache cell missed")
			}
		}
	}))
	return nil
}
