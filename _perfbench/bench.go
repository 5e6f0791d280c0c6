package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// size selects the workloads' input sizes: full for measurements, tiny
// for the smoke tests.
type size int

const (
	full size = iota
	tiny
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	// setupRepeats is how many times a run sets the workload up, each time
	// from a collected heap; setup_s is the median of their calibrated
	// times, so one slow set-up does not move it. The last set-up's
	// instance is measured.
	setupRepeats int
	setup        func(ctx context.Context, seed uint64, sz size) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// pass is the number of units in one pass of the workload's fixed
	// work; a run measures whole passes.
	pass() int
	// unit runs the i-th unit of a pass (0 <= i < pass()), recording spans
	// into tr (nil when untraced) and outcomes into u.
	unit(ctx context.Context, i int, tr *tracer, u *unitResult) error
	// layers adds the per-layer metrics of the traced passes to m; tr
	// holds their finished spans.
	layers(tr *tracer, m metricSet)
	close()
}

// unitResult collects what one unit of work did.
type unitResult struct {
	// kind names what the unit ran when a pass has units of several kinds
	// (the scenario of a paper-suite unit); it is empty otherwise.
	kind string
	wall float64 // seconds
	// factor calibrates the unit's times (see timed).
	factor float64
	// heap is the unit's peak Go heap in MiB (untraced runs only).
	heap float64
	// ops are the latencies in ms of the workload's primary operation. A
	// nonzero sweep marks them as parts of one operation that spans the
	// units of that sweep: its latency is their sum.
	ops   []float64
	sweep int
	// attempted counts checked operations; failures describes the ones
	// whose outputs were wrong.
	attempted int
	failures  []string
	// fingerprint holds the counts that must repeat exactly for a fixed
	// seed (rounds, messages, tables, per-class request counts); every unit
	// of a kind must count the same.
	fingerprint []string
}

func (u *unitResult) failf(format string, args ...any) {
	u.failures = append(u.failures, fmt.Sprintf(format, args...))
}

func (u *unitResult) count(name string, v any) {
	u.fingerprint = append(u.fingerprint, fmt.Sprintf("%s=%v", name, v))
}

var workloads = map[string]workload{
	"paper-suite": {setupRepeats: 9, setup: setupPaperSuite},
	"many-colors": {setupRepeats: 9, setup: setupManyColors},
	"per-node":    {setupRepeats: 9, setup: setupPerNode},
	"serve-mix":   {setupRepeats: 5, setup: setupServeMix},
}

func workloadNames() []string { return sortedKeys(workloads) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// phase is a sequence of units run back to back.
type phase []unitResult

// wall returns the calibrated wall time of one pass: for each kind of
// unit, the median over the phase of its calibrated walls, summed over the
// kinds.
func (p phase) wall() float64 {
	byKind := make(map[string][]float64)
	for _, u := range p {
		byKind[u.kind] = append(byKind[u.kind], u.wall*u.factor)
	}
	total := 0.0
	for _, k := range sortedKeys(byKind) {
		total += median(byKind[k])
	}
	return total
}

// heap returns the peak heap of one pass: the highest, over the kinds of
// unit, of the kind's smallest unit peak. Every unit starts from a
// collected heap, so a kind's peaks differ only by what the service's
// cache holds: it grows with every serve-mix miss, and the smallest peak
// is the first block's, whatever the number of blocks the run got to.
func (p phase) heap() float64 {
	byKind := make(map[string]float64)
	for _, u := range p {
		if h, ok := byKind[u.kind]; !ok || u.heap < h {
			byKind[u.kind] = u.heap
		}
	}
	peak := 0.0
	for _, h := range byKind {
		peak = max(peak, h)
	}
	return peak
}

// ops returns the calibrated latencies of the phase's primary operations.
func (p phase) ops() []float64 {
	var ops []float64
	sweeps := make(map[int]float64)
	for _, u := range p {
		for _, o := range u.ops {
			if u.sweep != 0 {
				sweeps[u.sweep] += o * u.factor
			} else {
				ops = append(ops, o*u.factor)
			}
		}
	}
	for _, o := range sweeps {
		ops = append(ops, o)
	}
	return ops
}

// runUnits runs passes of units until another pass would overrun budget
// (at least one pass runs), timing each unit with timed. heap, when
// non-nil, records each unit's peak.
func runUnits(ctx context.Context, inst instance, tr *tracer, heap *heapSampler, budget time.Duration) (phase, error) {
	var p phase
	start := time.Now()
	per := inst.pass()
	passStart := start
	for i := 0; ; i++ {
		// Each unit starts from a collected heap, so its peak does not
		// depend on garbage the previous unit left behind.
		runtime.GC()
		if heap != nil {
			heap.take()
		}
		var u unitResult
		var err error
		u.wall, u.factor, err = timed(func() error { return inst.unit(ctx, i%per, tr, &u) })
		if err != nil {
			return nil, err
		}
		if heap != nil {
			u.heap = heap.take()
		}
		p = append(p, u)
		if (i+1)%per != 0 {
			continue
		}
		tr.count("passes", 1)
		now := time.Now()
		if now.Sub(start)+now.Sub(passStart)/2 >= budget {
			return p, nil
		}
		passStart = now
	}
}

// run sets the workload up, measures it for the given time and checks
// its outputs. Untraced runs report the end-to-end metrics; traced runs
// spend half the time untraced and half traced and report the per-layer
// metrics, the tracing overhead among them.
func run(ctx context.Context, w workload, seed uint64, seconds time.Duration, trace bool, sz size) (*outcome, error) {
	var inst instance
	var setups []float64
	for i := 0; i < w.setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		d, factor, err := timed(func() (err error) {
			inst, err = w.setup(ctx, seed, sz)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d*factor)
	}
	defer inst.close()

	out := &outcome{result: result{Metrics: make(map[string]metric)}}
	m := metricSet(out.result.Metrics)
	var phases []phase
	if !trace {
		heap := startHeapSampler()
		p, err := runUnits(ctx, inst, nil, heap, seconds)
		heap.close()
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
		ops := p.ops()
		m.set("setup_s", median(setups))
		m.set("wall_s", p.wall())
		m.set("peak_heap_mb", p.heap())
		m.set("op_p50_ms", quantile(ops, 0.5))
		m.set("op_p90_ms", quantile(ops, 0.9))
	} else {
		plain, err := runUnits(ctx, inst, nil, nil, seconds/2)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		before := readGC()
		traced, err := runUnits(ctx, inst, tr, nil, seconds/2)
		if err != nil {
			return nil, err
		}
		gc := readGC().since(before)
		phases = append(phases, plain, traced)
		out.spans = tr.finish()
		m.set("trace.overhead_ratio", traced.wall()/plain.wall())
		passes := float64(len(traced) / inst.pass())
		m.set("runtime.alloc_mb", float64(gc.allocBytes)/(1<<20)/passes)
		m.set("runtime.gc_cycles", float64(gc.cycles)/passes)
		m.set("runtime.gc_pause_ms", float64(gc.pauseNs)/1e6/passes)
		inst.layers(tr, m)
		if err := layerCells(ctx, seed, sz, m); err != nil {
			return nil, err
		}
		// A layer the workload does not exercise did no work on it.
		for _, d := range perLayer {
			if _, ok := m[d.name]; !ok {
				m.set(d.name, 0)
			}
		}
	}

	first := make(map[string]string)
	for _, p := range phases {
		for i, u := range p {
			out.result.Attempted += u.attempted
			out.failures = append(out.failures, u.failures...)
			fp := strings.Join(u.fingerprint, " ")
			if f, ok := first[u.kind]; !ok {
				first[u.kind] = fp
			} else if f != fp {
				out.failures = append(out.failures, fmt.Sprintf("exact-repeat: unit %d counted %s, the first unit of its kind %s", i, fp, f))
			}
		}
	}
	out.result.Failed = len(out.failures)
	out.result.Correct = out.result.Failed == 0 && out.result.Attempted > 0
	return out, nil
}
