package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/ignorecomply/consensus/internal/serve"
	"github.com/ignorecomply/consensus/scenario"
	"github.com/ignorecomply/consensus/scenarios"
)

// The serve-mix traffic: one client in a closed loop (callers of the daemon
// wait for each reply with wait=1), in blocks of serveBlock requests. Each
// block has exactly serveHits hits, serveMisses misses and the rest SSE
// replays, in an order drawn from the seed; a block takes about 0.15 s.
// The benchmark runs on one P
// (see main), where a second client only queues behind the first: it
// raised the hit p90 from 0.5 ms to 2.4 ms without adding throughput.
const (
	serveBlock  = 200
	serveHits   = 170
	serveMisses = 20
	// serveVariants is the number of cosmetic re-encodings per warm
	// scenario; every hit decodes, canonicalizes and hashes a full document.
	serveVariants = 8
)

// warmSet are the scenarios the cache is warmed with: the ones that run in
// well under a second at quick scale (E02, E09, E11 and E12 are left out
// to keep setup_s short).
var warmSet = []string{"e01", "e03", "e04", "e05", "e06", "e07", "e08", "e10", "e13", "n01", "n02"}

// missScenario is the scenario every miss runs, at a never-used seed: one
// cheap scenario gives the miss latency a single mode.
const missScenario = "e08"

type reqClass uint8

const (
	classHit reqClass = iota
	classMiss
	classStream
)

func (c reqClass) String() string { return [...]string{"hit", "miss", "stream"}[c] }

// request is one planned request.
type request struct {
	class   reqClass
	doc     int // warm-set index (hits)
	variant int
}

type warmDoc struct {
	id       string
	variants [][]byte
	// body is the response of the warming submission; every hit must
	// return exactly these bytes.
	body []byte
}

// lastMiss is a finished miss job, the target of SSE replays.
type lastMiss struct {
	id     string
	result []byte
}

type serveMix struct {
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	seed    uint64
	warm    []warmDoc
	missDoc []byte
	plan    []request
	// missSeed counts up from a seed-derived base; no miss seed repeats.
	missSeed uint64
	last     *lastMiss

	// Filled by the traced units.
	lat         [3][]float64 // per class, ms
	respBytes   int64
	responses   int64
	tracedWall  float64
	tracedReqs  int64
	missSeeds   []uint64
	blockCounts map[string]float64
}

// servePlan returns the seed's block of requests and the cosmetic
// re-encodings of each warm-set document.
func servePlan(seed uint64, docs [][]byte) ([]request, [][][]byte, error) {
	r := rand.New(rand.NewPCG(seed, 0x5e77e))
	variants := make([][][]byte, len(docs))
	for i, d := range docs {
		for v := 0; v < serveVariants; v++ {
			b, err := cosmetic(d, r)
			if err != nil {
				return nil, nil, err
			}
			variants[i] = append(variants[i], b)
		}
	}
	plan := make([]request, serveBlock)
	for i := range plan {
		switch {
		case i < serveHits:
			plan[i] = request{class: classHit, doc: r.IntN(len(docs)), variant: r.IntN(serveVariants)}
		case i < serveHits+serveMisses:
			plan[i] = request{class: classMiss}
		default:
			plan[i] = request{class: classStream}
		}
	}
	r.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan, variants, nil
}

// cosmetic re-encodes a JSON document with shuffled object keys and
// random whitespace; the scenario it decodes to, and so its canonical
// hash, is unchanged.
func cosmetic(doc []byte, r *rand.Rand) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	spaces := []string{"", " ", "  ", "\n", "\n\t", "\t"}
	ws := func() { b.WriteString(spaces[r.IntN(len(spaces))]) }
	var enc func(v any) error
	enc = func(v any) error {
		switch x := v.(type) {
		case map[string]any:
			keys := sortedKeys(x)
			r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			b.WriteByte('{')
			for i, k := range keys {
				if i > 0 {
					b.WriteByte(',')
				}
				ws()
				kb, _ := json.Marshal(k)
				b.Write(kb)
				ws()
				b.WriteByte(':')
				ws()
				if err := enc(x[k]); err != nil {
					return err
				}
			}
			ws()
			b.WriteByte('}')
		case []any:
			b.WriteByte('[')
			for i, e := range x {
				if i > 0 {
					b.WriteByte(',')
				}
				ws()
				if err := enc(e); err != nil {
					return err
				}
			}
			ws()
			b.WriteByte(']')
		default:
			vb, err := json.Marshal(x)
			if err != nil {
				return err
			}
			b.Write(vb)
		}
		return nil
	}
	if err := enc(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// setupServeMix starts consensus-serve with its default configuration
// behind a loopback listener, warms the cache with the warm set at the
// workload seed, and checks that every warm-set scenario finished done and
// passed — a binary without the experiment registrations would otherwise
// serve millisecond errors and the benchmark would time the error path.
func setupServeMix(ctx context.Context, seed uint64, sz size) (instance, error) {
	ids := warmSet
	if sz == tiny {
		ids = []string{"e07", "e08", "e13"}
	}
	var docs [][]byte
	for _, id := range ids {
		d, err := readScenario(id)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	missDoc, err := readScenario(missScenario)
	if err != nil {
		return nil, err
	}
	plan, variants, err := servePlan(seed, docs)
	if err != nil {
		return nil, err
	}
	w := &serveMix{
		srv:     serve.NewServer(serve.Config{Log: log.New(io.Discard, "", 0)}),
		seed:    seed,
		missDoc: missDoc,
		plan:    plan,
	}
	w.ts = httptest.NewServer(w.srv)
	w.client = w.ts.Client()
	w.missSeed = rand.New(rand.NewPCG(seed, 0x3155)).Uint64() | 1<<63
	for i, id := range ids {
		code, xc, body, err := w.post(ctx, docs[i], seed)
		if err == nil {
			var p *payload
			if _, p, err = checkJob(code, xc, "miss", body, seed); err == nil && !p.Passed {
				err = fmt.Errorf("expectations failed at seed %d", seed)
			}
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("warm %s: %w", id, err)
		}
		w.warm = append(w.warm, warmDoc{id: id, variants: variants[i], body: body})
	}
	// One miss ahead of the timed part gives the first SSE replay a target.
	var u unitResult
	w.do(ctx, nil, &u, request{class: classMiss}, -1)
	if len(u.failures) > 0 {
		w.close()
		return nil, fmt.Errorf("miss probe: %s", u.failures[0])
	}
	return w, nil
}

func readScenario(id string) ([]byte, error) {
	for _, name := range scenarios.Names() {
		if strings.HasPrefix(name, id+"_") {
			return scenarios.Read(name)
		}
	}
	return nil, fmt.Errorf("no checked-in scenario %s", id)
}

func (w *serveMix) post(ctx context.Context, doc []byte, seed uint64) (code int, xcache string, body []byte, err error) {
	url := w.ts.URL + "/jobs?wait=1&scale=quick&seed=" + strconv.FormatUint(seed, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(doc))
	if err != nil {
		return 0, "", nil, err
	}
	return w.roundTrip(req)
}

func (w *serveMix) roundTrip(req *http.Request) (int, string, []byte, error) {
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, err
}

// jobBody is the part of a job descriptor the checks read.
type jobBody struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// payload is the part of a result payload the checks read.
type payload struct {
	Seed   uint64 `json:"seed"`
	Scale  string `json:"scale"`
	Passed bool   `json:"passed"`
	Report struct {
		Violations []json.RawMessage `json:"violations"`
	} `json:"report"`
}

// checkJob checks a wait=1 submission of seed: 200, the expected X-Cache
// class, and a done job whose result is for that seed at quick scale.
func checkJob(code int, xcache, want string, body []byte, seed uint64) (*jobBody, *payload, error) {
	if code != http.StatusOK || xcache != want {
		return nil, nil, fmt.Errorf("status %d X-Cache %q, want 200 %q: %.200s", code, xcache, want, body)
	}
	var jb jobBody
	if err := json.Unmarshal(body, &jb); err != nil {
		return nil, nil, err
	}
	var p payload
	if jb.Status != "done" || json.Unmarshal(jb.Result, &p) != nil || p.Seed != seed || p.Scale != "quick" {
		return nil, nil, fmt.Errorf("job %s: status %q, error %q, result for seed %d scale %q", jb.ID, jb.Status, jb.Error, p.Seed, p.Scale)
	}
	return &jb, &p, nil
}

// pass is one unit: a block of requests.
func (w *serveMix) pass() int { return 1 }

// unit runs one block of requests and checks the service's counters
// moved by exactly the block's requests.
func (w *serveMix) unit(ctx context.Context, _ int, tr *tracer, u *unitResult) error {
	before, err := w.metrics(ctx)
	if err != nil {
		return err
	}
	start := time.Now()
	for i, rq := range w.plan {
		w.do(ctx, tr, u, rq, i)
	}
	wall := time.Since(start).Seconds()
	after, err := w.metrics(ctx)
	if err != nil {
		return err
	}
	for _, name := range []string{"cache_hits", "cache_misses", "joined", "rejected", "submitted"} {
		u.count("serve."+name, after[name]-before[name])
	}
	if tr != nil {
		w.tracedWall += wall
		w.tracedReqs += int64(len(w.plan))
		if w.blockCounts == nil {
			w.blockCounts = make(map[string]float64)
		}
		for name, v := range after {
			w.blockCounts[name] += v - before[name]
		}
	}
	return nil
}

// do sends the block's i-th request and checks its response.
func (w *serveMix) do(ctx context.Context, tr *tracer, u *unitResult, rq request, i int) {
	u.attempted++
	var id int
	if tr != nil {
		id = tr.begin("serve."+rq.class.String(), "serve-mix/req-"+strconv.Itoa(i), 0)
	}
	start := time.Now()
	var (
		code   int
		xcache string
		body   []byte
		err    error
		seed   uint64
		target *lastMiss
	)
	switch rq.class {
	case classHit:
		code, xcache, body, err = w.post(ctx, w.warm[rq.doc].variants[rq.variant], w.seed)
	case classMiss:
		w.missSeed++
		seed = w.missSeed
		code, xcache, body, err = w.post(ctx, w.missDoc, seed)
	case classStream:
		target = w.last
		var req *http.Request
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.ts.URL+"/jobs/"+target.id+"/stream", nil)
		if err == nil {
			code, _, body, err = w.roundTrip(req)
		}
	}
	d := time.Since(start)
	tr.end(id)
	if err == nil {
		err = w.check(rq, seed, target, code, xcache, body)
	}
	if err != nil {
		u.failf("request %d (%s): %v", i, rq.class, err)
		return
	}
	if rq.class == classHit {
		u.ops = append(u.ops, ms(d))
	}
	if tr != nil {
		w.lat[rq.class] = append(w.lat[rq.class], ms(d))
		w.respBytes += int64(len(body))
		w.responses++
		if rq.class == classMiss {
			w.missSeeds = append(w.missSeeds, seed)
		}
	}
}

// check checks one response. A hit must be byte-identical to the warming
// response; a miss must be a fresh, passing execution (and becomes the
// next SSE replay target); the replay of target must end with the
// terminal done event carrying that miss's result bytes.
func (w *serveMix) check(rq request, seed uint64, target *lastMiss, code int, xcache string, body []byte) error {
	switch rq.class {
	case classHit:
		if code != http.StatusOK || xcache != "hit" {
			return fmt.Errorf("status %d X-Cache %q, want 200 hit", code, xcache)
		}
		if !bytes.Equal(body, w.warm[rq.doc].body) {
			return fmt.Errorf("hit body for %s differs from the warming response", w.warm[rq.doc].id)
		}
	case classMiss:
		jb, p, err := checkJob(code, xcache, "miss", body, seed)
		if err != nil {
			return err
		}
		if !p.Passed {
			if err := w.confirmViolations(seed, len(p.Report.Violations)); err != nil {
				return err
			}
		}
		w.last = &lastMiss{id: jb.ID, result: jb.Result}
	case classStream:
		if code != http.StatusOK {
			return fmt.Errorf("stream status %d: %.200s", code, body)
		}
		done := append(append([]byte("event: done\ndata: "), target.result...), '\n', '\n')
		if !bytes.HasSuffix(body, done) {
			return fmt.Errorf("stream of %s does not end with its result", target.id)
		}
	}
	return nil
}

// confirmViolations checks a miss whose expectations failed against a
// direct scenario.RunChecked at the same seed. The miss scenario's
// expectations are statistical, so a rare fresh seed legitimately violates
// them (E08 does at about one seed in 2000); the service is wrong only if
// the library disagrees.
func (w *serveMix) confirmViolations(seed uint64, got int) error {
	s, err := scenario.DecodeBytes(w.missDoc)
	if err != nil {
		return err
	}
	_, report, err := scenario.RunChecked(context.Background(), s, scenario.Params{Seed: seed, Scale: scenario.Quick})
	if report == nil {
		return fmt.Errorf("direct run at seed %d: %v", seed, err)
	}
	if len(report.Violations) != got {
		return fmt.Errorf("service reported %d violations at seed %d, the library %d", got, seed, len(report.Violations))
	}
	fmt.Fprintf(os.Stderr, "note: the miss at seed %d violates %s's expectations, as the library does\n", seed, missScenario)
	return nil
}

// metrics reads the service's counters from GET /metrics.
func (w *serveMix) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.ts.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	code, _, body, err := w.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		name = strings.TrimSuffix(strings.TrimPrefix(name, "consensus_serve_"), "_total")
		out[name] = v
	}
	return out, nil
}

func (w *serveMix) layers(tr *tracer, m metricSet) {
	passes := float64(tr.counter("passes"))
	for _, name := range []string{"cache_hits", "cache_misses", "joined", "rejected", "executed"} {
		m.set("serve."+name, w.blockCounts[name]/passes)
	}
	m.set("serve.hit_ratio", w.blockCounts["cache_hits"]/w.blockCounts["submitted"])
	m.set("serve.hit_p99_ms", quantile(w.lat[classHit], 0.99))
	m.set("serve.miss_p50_ms", quantile(w.lat[classMiss], 0.5))
	m.set("serve.miss_p90_ms", quantile(w.lat[classMiss], 0.9))
	m.set("serve.req_per_s", float64(w.tracedReqs)/w.tracedWall)
	m.set("serve.resp_bytes_mean", float64(w.respBytes)/float64(w.responses))
	m.set("serve.stream_ms_p50", quantile(w.lat[classStream], 0.5))
	m.set("serve.miss_overhead_ms_p50", quantile(w.lat[classMiss], 0.5)-w.directMissMs())
}

// directMissMs is the median time of running the miss scenario directly
// through scenario.RunChecked at the seeds the traced misses used.
func (w *serveMix) directMissMs() float64 {
	s, err := scenario.DecodeBytes(w.missDoc)
	if err != nil {
		return 0
	}
	seeds := w.missSeeds
	if len(seeds) > 100 {
		seeds = seeds[:100]
	}
	var lat []float64
	for _, sd := range seeds {
		t := time.Now()
		if _, _, err := scenario.RunChecked(context.Background(), s, scenario.Params{Seed: sd, Scale: scenario.Quick}); err != nil {
			return 0
		}
		lat = append(lat, ms(time.Since(t)))
	}
	return median(lat)
}

func (w *serveMix) close() {
	w.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.srv.Drain(ctx) // a forced drain still stops every worker
}
