package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/ignorecomply/consensus/scenario"
	"github.com/ignorecomply/consensus/scenarios"
)

// suiteDoc is one checked-in scenario file.
type suiteDoc struct {
	id   string // file-name prefix: e01 … e13, n01, n02
	data []byte
	// runs is the suite's run count (0 for custom kinds).
	runs int
}

type paperSuite struct {
	docs    []suiteDoc
	seed    uint64
	workers int
	// order lists a pass's units by index into docs: every scenario, then
	// the interactive ones again.
	order []int
	// passes counts the passes begun, to number the sweeps.
	passes int
}

// setupPaperSuite loads and decodes every checked-in scenario and expands
// the suites. The tiny size keeps only the scenarios that finish in
// milliseconds.
func setupPaperSuite(_ context.Context, seed uint64, sz size) (instance, error) {
	w := &paperSuite{seed: seed, workers: runtime.NumCPU()}
	for _, name := range scenarios.Names() {
		id, _, _ := strings.Cut(name, "_")
		if sz == tiny && !cheapScenario[id] {
			continue
		}
		data, err := scenarios.Read(name)
		if err != nil {
			return nil, err
		}
		if r, ok := cutReplicas[id]; ok {
			if data, err = withReplicas(data, r); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		s, err := scenario.DecodeBytes(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		doc := suiteDoc{id: id, data: data}
		if s.Kind != scenario.KindCustom {
			specs, err := s.Expand(w.params(nil))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			doc.runs = len(specs)
		}
		w.docs = append(w.docs, doc)
	}
	for i := range w.docs {
		w.order = append(w.order, i)
	}
	for i, doc := range w.docs {
		if !slowScenario[doc.id] {
			w.order = append(w.order, i)
		}
	}
	return w, nil
}

// cutReplicas replaces the quick replica counts of the scenarios that take
// far longer than the rest: E09 runs 120 h-Majority runs in about 25 s at
// quick scale, longer than a whole measured run, so a run could time it
// once at most. With one run for each h it takes about 1.5 s and keeps its
// sweep, its α enumeration at h = 3…6 and its expectations.
var cutReplicas = map[string]string{"e09": "1"}

// withReplicas returns the scenario document with its quick replica count
// set to expr.
func withReplicas(doc []byte, expr string) ([]byte, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(doc, &fields); err != nil {
		return nil, err
	}
	var replicas map[string]any
	if err := json.Unmarshal(fields["replicas"], &replicas); err != nil {
		return nil, err
	}
	replicas["quick"] = expr
	r, err := json.Marshal(replicas)
	if err != nil {
		return nil, err
	}
	fields["replicas"] = r
	return json.Marshal(fields)
}

// cheapScenario marks the scenarios that run in milliseconds at quick
// scale.
var cheapScenario = map[string]bool{"e06": true, "e07": true, "e08": true, "e13": true, "n02": true}

func (w *paperSuite) params(progress scenario.ProgressFunc) scenario.Params {
	return scenario.Params{Seed: w.seed, Scale: scenario.Quick, Workers: w.workers, Progress: progress}
}

func (w *paperSuite) pass() int { return len(w.order) }

// slowScenario marks the scenarios that take a second or more at quick
// scale. The others are the interactive ones; the workload's primary
// operation is a sweep of them, one after another. A single scenario's
// latency would not do: a run's median op would be whichever scenario
// sits in the middle, whose work depends on the seed. A pass holds two
// sweeps (they take a fifth of it), one among the slow scenarios and one
// after them; wall_s counts each scenario once (see phase.wall).
var slowScenario = map[string]bool{"e02": true, "e09": true, "e11": true, "e12": true}

// unit runs the pass's i-th scenario (traced, when tracing). Every repeat
// at the seed must reproduce the first run's table. Each scenario starts from a
// collected heap, as it would in a process of its own, so peak_heap_mb
// does not depend on garbage an earlier scenario left behind.
func (w *paperSuite) unit(ctx context.Context, i int, tr *tracer, u *unitResult) error {
	if i == 0 {
		w.passes++
	}
	doc := w.docs[w.order[i]]
	u.kind = doc.id
	d, table := w.runOne(ctx, tr, u, doc)
	u.count(doc.id+".table", table)
	if !slowScenario[doc.id] {
		u.ops = append(u.ops, d)
		u.sweep = 2 * w.passes
		if i >= len(w.docs) {
			u.sweep++
		}
	}
	return nil
}

// runOne decodes one scenario and runs it checked, returning its latency
// in ms and a hash of its table. Traced, it splits the call at the
// suite-start and last cell-done progress events.
func (w *paperSuite) runOne(ctx context.Context, tr *tracer, u *unitResult, doc suiteDoc) (float64, string) {
	u.attempted++
	runID := "paper-suite/" + doc.id
	start := time.Now()
	root := tr.begin("scenario.wall."+doc.id, runID, 0)
	s, err := scenario.DecodeBytes(doc.data)
	decoded := time.Now()
	tr.add("scenario.decode", runID, root, start, decoded.Sub(start))
	if err != nil {
		u.failf("%s: decode: %v", doc.id, err)
		tr.end(root)
		return 0, ""
	}
	var progress scenario.ProgressFunc
	var suiteStart, lastCell time.Time
	runs := 0
	if tr != nil {
		progress = func(ev scenario.ProgressEvent) {
			switch ev.Kind {
			case scenario.ProgressSuiteStart:
				suiteStart = time.Now()
				runs = ev.Total
			case scenario.ProgressCellDone:
				lastCell = time.Now()
			}
		}
	}
	tbl, report, err := scenario.RunChecked(ctx, s, w.params(progress))
	end := time.Now()
	tr.end(root)
	if tr != nil {
		if suiteStart.IsZero() { // custom adapters emit no progress
			suiteStart, lastCell = decoded, end
		}
		tr.add("scenario.prepare", runID, root, decoded, suiteStart.Sub(decoded))
		tr.add("scenario.execute", runID, root, suiteStart, lastCell.Sub(suiteStart))
		tr.add("scenario.reduce_expect", runID, root, lastCell, end.Sub(lastCell))
		tr.count("scenario.runs."+doc.id, int64(runs))
		if runs != doc.runs {
			u.failf("%s: executed %d runs, expansion has %d", doc.id, runs, doc.runs)
		}
	}
	switch {
	case err != nil && report != nil:
		u.failf("%s: expectations failed: %v", doc.id, err)
	case err != nil:
		u.failf("%s: %v", doc.id, err)
	}
	tblJSON, err := json.Marshal(tbl)
	if err != nil {
		u.failf("%s: marshal table: %v", doc.id, err)
	}
	return ms(end.Sub(start)), fmt.Sprintf("%x", sha256.Sum256(tblJSON))[:16]
}

func (w *paperSuite) layers(tr *tracer, m metricSet) {
	// perSuite sums, over the scenarios, the mean per run of the scenario
	// of f: what one pass through the suite, each scenario once, adds up
	// to.
	perSuite := func(f func(id, run string) float64) float64 {
		total := 0.0
		for _, doc := range w.docs {
			if n := tr.spanCount("scenario.wall." + doc.id); n > 0 {
				total += f(doc.id, "paper-suite/"+doc.id) / float64(n)
			}
		}
		return total
	}
	span := func(name string) func(id, run string) float64 {
		return func(_, run string) float64 { return tr.sumRun(name, run) }
	}
	m.set("scenario.decode_ms", perSuite(span("scenario.decode"))*1e3)
	m.set("scenario.prepare_s", perSuite(span("scenario.prepare")))
	m.set("scenario.execute_s", perSuite(span("scenario.execute")))
	m.set("scenario.reduce_expect_s", perSuite(span("scenario.reduce_expect")))
	m.set("scenario.runs", perSuite(func(id, _ string) float64 { return float64(tr.counter("scenario.runs." + id)) }))
	for _, doc := range w.docs {
		m.set("scenario.wall_s."+doc.id, tr.sumRun("scenario.wall."+doc.id, "paper-suite/"+doc.id)/float64(tr.spanCount("scenario.wall."+doc.id)))
	}
}

func (w *paperSuite) close() {}
