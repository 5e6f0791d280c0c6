// Command perfbench is the repository benchmark. It drives the simulator
// through its public entry points — the scenario layer, the Runner, the
// suite service over loopback HTTP, and the rng/analytic/rules functions —
// on four workloads:
//
//	paper-suite  every checked-in scenario at quick scale (scenario.RunChecked)
//	many-colors  the batch engine from the n-color start (2-Choices, 3-Majority)
//	per-node     the sharded agents engine and the event-driven cluster engine
//	serve-mix    consensus-serve under a closed loop of hits, misses and SSE replays
//
// Usage, from the repository root:
//
//	bash _perfbench/run.sh --workload per-node --seed 3 --seconds 20 --trace 0
//	bash _perfbench/run.sh compare DIR_A DIR_B
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a traced run (see metrics.go). Every run checks the
// workload's outputs; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} and the exit code is 1 when
// a check failed. The line before it records the environment, which is
// also stored with the result under .bench_build/results/.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	// Register the paper-experiment reducers, adapters and stop predicates,
	// as cmd/consensus-serve and cmd/consensus-sim do; without them the
	// checked-in scenarios fail to execute.
	_ "github.com/ignorecomply/consensus/internal/expt"
)

// commit is set at build time by run.sh (-ldflags -X main.commit=...).
var commit = "unknown"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "how long the timed part runs")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// One P: on a small shared VM, two busy threads ran at 2× and at 1×
	// for seconds at a time (CPU time unchanged), so wall times of parallel
	// work did not repeat; a single P does. The suite worker pool and the
	// engines' shards stay at nproc, so their code paths still run.
	runtime.GOMAXPROCS(1)
	env := readEnv()
	res, err := run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, full)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	header, _ := json.Marshal(map[string]any{"env": env, "workload": *name, "seed": *seed, "trace": *trace})
	fmt.Println(string(header))
	line, _ := json.Marshal(res.result)
	fmt.Println(string(line))
	if err := saveResult(env, *name, *seed, *trace, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: save result:", err)
		os.Exit(1)
	}
	if !res.result.Correct {
		os.Exit(1)
	}
}

// env describes the machine and build a result was measured on.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readEnv() env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a finished run: the printed result, the failed checks, and
// the traced run's spans.
type outcome struct {
	result   result
	failures []string
	spans    []span
}

// saveResult stores the result with its environment under
// .bench_build/results/ (and the traced run's spans under
// .bench_build/traces/) for later comparison.
func saveResult(e env, name string, seed uint64, trace int, res *outcome) error {
	stamp := time.Now().UnixNano()
	if res.spans != nil {
		data, err := json.Marshal(res.spans)
		if err != nil {
			return err
		}
		if err := writeFile(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-s%d-%d.json", name, seed, stamp)), data); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(savedResult{Env: e, Workload: name, Seed: seed, Trace: trace, Result: res.result}, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(".bench_build", "results", fmt.Sprintf("%s-t%d-s%d-%d.json", name, trace, seed, stamp)), data)
}

type savedResult struct {
	Env      env    `json:"env"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// compare prints, per workload and metric, the median of each of two
// directories of saved results and their ratio. It refuses results
// measured with different nproc: timings from machines of different
// width do not compare.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare DIR_A DIR_B")
	}
	var sets [2]map[string]map[string][]float64
	nproc := 0
	for i, dir := range args {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return fmt.Errorf("%s: no results", dir)
		}
		sets[i] = make(map[string]map[string][]float64)
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			var sr savedResult
			if err := json.Unmarshal(data, &sr); err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			if nproc == 0 {
				nproc = sr.Env.NProc
			}
			if sr.Env.NProc != nproc {
				return fmt.Errorf("%s: measured with nproc %d, others with %d; refusing to compare", f, sr.Env.NProc, nproc)
			}
			key := fmt.Sprintf("%s/trace%d", sr.Workload, sr.Trace)
			if sets[i][key] == nil {
				sets[i][key] = make(map[string][]float64)
			}
			for m, v := range sr.Result.Metrics {
				sets[i][key][m] = append(sets[i][key][m], v.Value)
			}
		}
	}
	fmt.Fprintf(w, "%-24s %-40s %14s %14s %8s\n", "workload", "metric", "A median", "B median", "B/A")
	for _, key := range sortedKeys(sets[0]) {
		for _, m := range sortedKeys(sets[0][key]) {
			b, ok := sets[1][key][m]
			if !ok {
				continue
			}
			ma, mb := median(sets[0][key][m]), median(b)
			ratio := 0.0
			if ma != 0 {
				ratio = mb / ma
			}
			fmt.Fprintf(w, "%-24s %-40s %14.6g %14.6g %8.3f\n", key, m, ma, mb, ratio)
		}
	}
	return nil
}
