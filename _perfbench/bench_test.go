package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ignorecomply/consensus/scenario"
)

func warmDocs(t *testing.T) [][]byte {
	t.Helper()
	var docs [][]byte
	for _, id := range warmSet {
		d, err := readScenario(id)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	return docs
}

// TestSameSeedSameInputs pins that a seed fixes the serve-mix request
// sequence and document bytes, that another seed changes them, and that a
// cosmetic re-encoding keeps the scenario's canonical hash (so it is a
// cache hit).
func TestSameSeedSameInputs(t *testing.T) {
	docs := warmDocs(t)
	plan1, var1, err := servePlan(7, docs)
	if err != nil {
		t.Fatal(err)
	}
	plan2, var2, err := servePlan(7, docs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan1, plan2) || !reflect.DeepEqual(var1, var2) {
		t.Fatal("seed 7 produced different requests or documents")
	}
	plan3, var3, err := servePlan(8, docs)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(plan1, plan3) || reflect.DeepEqual(var1, var3) {
		t.Fatal("seeds 7 and 8 produced the same requests and documents")
	}
	classes := map[reqClass]int{}
	for _, r := range plan1 {
		classes[r.class]++
	}
	if classes[classHit] != serveHits || classes[classMiss] != serveMisses || classes[classStream] != serveBlock-serveHits-serveMisses {
		t.Fatalf("block mix %v", classes)
	}
	for i, d := range docs {
		want := hashOf(t, d)
		for _, v := range var1[i] {
			if bytes.Equal(v, d) {
				t.Errorf("%s: variant equals the original document", warmSet[i])
			}
			if got := hashOf(t, v); got != want {
				t.Errorf("%s: variant hash %s, want %s", warmSet[i], got, want)
			}
		}
	}

	a, err := setupPaperSuite(context.Background(), 3, full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupPaperSuite(context.Background(), 3, full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("paper-suite seed 3 produced different inputs")
	}
}

func hashOf(t *testing.T, doc []byte) string {
	t.Helper()
	s, err := scenario.DecodeBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	h, err := scenario.Hash(s)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !namePattern.MatchString(d.name) || !unitPattern.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: malformed", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range workloads {
		if !namePattern.MatchString(name) {
			t.Errorf("workload %q: malformed", name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics in
// step with the ones the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// requires its correctness checks to pass and every declared metric to be
// reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := run(context.Background(), workloads[name], 1, 300*time.Millisecond, trace, tiny)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.result.Correct || res.result.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failures=%v", name, trace, res.result.Correct, res.result.Attempted, res.failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.result.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.result.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.result.Metrics[d.name]
				if !ok || (!trace && v.Value <= 0) {
					t.Errorf("%s trace=%v: %s = %v, present %v", name, trace, d.name, v.Value, ok)
				}
			}
		}
	}
}

// TestExactRepeat pins that two set-ups of the same seed count the same
// rounds, messages, runs and per-class requests.
func TestExactRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	for _, name := range workloadNames() {
		var prints [2][]string
		for i := range prints {
			inst, err := workloads[name].setup(ctx, 4, tiny)
			if err != nil {
				t.Fatal(err)
			}
			var u unitResult
			if err := inst.unit(ctx, 0, nil, &u); err != nil {
				t.Fatal(err)
			}
			inst.close()
			if len(u.failures) > 0 || len(u.fingerprint) == 0 {
				t.Fatalf("%s: failures %v, fingerprint %v", name, u.failures, u.fingerprint)
			}
			prints[i] = u.fingerprint
		}
		if !reflect.DeepEqual(prints[0], prints[1]) {
			t.Errorf("%s: counts differ between set-ups:\n%v\n%v", name, prints[0], prints[1])
		}
	}
}

// TestMissViolationConfirmed pins the miss check on a fresh seed at which
// E08's statistical expectations failed: a miss reporting the library's
// violations is correct, any other count is not.
func TestMissViolationConfirmed(t *testing.T) {
	doc, err := readScenario(missScenario)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.DecodeBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 14632951709984188432
	_, report, _ := scenario.RunChecked(context.Background(), s, scenario.Params{Seed: seed, Scale: scenario.Quick})
	if report == nil {
		t.Fatal("no report")
	}
	w := &serveMix{missDoc: doc}
	if err := w.confirmViolations(seed, len(report.Violations)); err != nil {
		t.Fatal(err)
	}
	if err := w.confirmViolations(seed, len(report.Violations)+1); err == nil {
		t.Fatal("a violation count the library does not report was accepted")
	}
}

// TestPhaseAggregates pins how a run's units become its metrics: wall_s
// sums each kind's median calibrated wall, the heap is the highest of the
// kinds' smallest peaks, and the ops of a sweep add up to one operation.
func TestPhaseAggregates(t *testing.T) {
	p := phase{
		{kind: "a", wall: 1, factor: 1, heap: 5, ops: []float64{10}, sweep: 2},
		{kind: "b", wall: 4, factor: 0.5, heap: 3, ops: []float64{20}, sweep: 2},
		{kind: "a", wall: 3, factor: 1, heap: 4, ops: []float64{30}, sweep: 3},
		{kind: "b", wall: 2, factor: 0.5, heap: 9, ops: []float64{40}, sweep: 3},
		{kind: "a", wall: 2, factor: 1, heap: 6},
	}
	if got := p.wall(); got != 2+1.5 {
		t.Errorf("wall %v, want 3.5", got)
	}
	if got := p.heap(); got != 4 {
		t.Errorf("heap %v, want 4", got)
	}
	ops := p.ops()
	sort.Float64s(ops)
	if !reflect.DeepEqual(ops, []float64{20, 50}) {
		t.Errorf("ops %v, want [20 50]", ops)
	}
}

// TestTimedCalibrates pins that timed returns fn's time (less the probe's,
// a few ms at most) and a factor of refNominal over a reference time near
// the one measured.
func TestTimedCalibrates(t *testing.T) {
	secs, factor, err := timed(func() error {
		time.Sleep(250 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if secs < 0.23 || secs > 0.35 {
		t.Errorf("timed a 250 ms sleep as %v s", secs)
	}
	if ref := refTime(); factor <= 0 || refNominal/factor > 3*ref || refNominal/factor < ref/3 {
		t.Errorf("factor %v: reference %v s, measured now %v s", factor, refNominal/factor, ref)
	}
}

func TestCompareRefusesOtherNproc(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, dir := range dirs {
		data, err := json.Marshal(savedResult{Env: env{NProc: i + 1}, Workload: "per-node", Result: result{Metrics: map[string]metric{"wall_s": {1, "s"}}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "r.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := compare(out, dirs[:]); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("compare across nproc 1 and 2: %v", err)
	}
}
