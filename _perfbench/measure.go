package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler records the highest Go heap in use (bytes of live and
// not-yet-swept heap objects) while it runs. runtime/metrics reads do not
// stop the world, so sampling does not perturb the measured work.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(readHeap())
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readHeap()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// take returns the peak in MiB since the previous take and restarts the
// peak from the current heap.
func (h *heapSampler) take() float64 {
	h.observe()
	return float64(h.peak.Swap(readHeap())) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// gcStats is a snapshot of the runtime's cumulative allocation and GC
// counters; the difference of two snapshots covers the work between them.
type gcStats struct {
	allocBytes uint64
	cycles     uint32
	pauseNs    uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{allocBytes: m.TotalAlloc, cycles: m.NumGC, pauseNs: m.PauseTotalNs}
}

func (a gcStats) since(b gcStats) gcStats {
	return gcStats{allocBytes: a.allocBytes - b.allocBytes, cycles: a.cycles - b.cycles, pauseNs: a.pauseNs - b.pauseNs}
}

// span is one timed interval of the traced run. Spans of one scenario, run
// or request share a Run id; Parent is the enclosing span's ID (0: none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: make(map[string]int64)} }

// count adds v to the named counter.
func (t *tracer) count(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// counter returns the named counter's total.
func (t *tracer) counter(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// begin opens a span and returns its id.
func (t *tracer) begin(name, run string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured span.
func (t *tracer) add(name, run string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run, Start: s, End: s + d.Nanoseconds()})
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < s.Start {
			s.End = s.Start
		}
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, cur), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return t.spans
}

// sum returns the total duration in seconds of the spans named name.
func (t *tracer) sum(name string) float64 {
	total := int64(0)
	for _, s := range t.spans {
		if s.Name == name {
			total += s.End - s.Start
		}
	}
	return float64(total) / 1e9
}

// sumRun returns the total duration in seconds of the spans named name of
// run id run.
func (t *tracer) sumRun(name, run string) float64 {
	total := int64(0)
	for _, s := range t.spans {
		if s.Name == name && s.Run == run {
			total += s.End - s.Start
		}
	}
	return float64(total) / 1e9
}

// spanCount returns the number of spans named name.
func (t *tracer) spanCount(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// selfSum returns the total self time in seconds of the spans named name.
func (t *tracer) selfSum(name string) float64 {
	total := int64(0)
	for _, s := range t.spans {
		if s.Name == name {
			total += s.Self
		}
	}
	return float64(total) / 1e9
}

// cell times fn, which performs ops operations per call, in batches of
// about 10 ms for about 200 ms and returns the median nanoseconds per
// operation over the batches.
func cell(ops int, fn func()) float64 {
	fn() // warm caches and lazily sized scratch
	reps := 1
	for {
		t := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(t) >= 10*time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 2
	}
	var per []float64
	deadline := time.Now().Add(200 * time.Millisecond)
	for len(per) < 5 || time.Now().Before(deadline) {
		t := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(reps*ops))
	}
	return median(per)
}

// The host this benchmark was tuned on (a 2-vCPU VM) does not run at one
// speed: for seconds to minutes at a time, random access within a core's
// L2 cache or beyond takes up to twice as long as otherwise, and the
// simulations and the service slow down with it. Raw times of the same
// code drifted by a third between sets of runs. So every reported time is
// calibrated against reference work run on the same core around and
// during it (see timed): a change to the program moves its calibrated
// times as it moves its raw ones, while a change of the host's speed moves
// the reference with them and cancels out.

// The reference work is three random walks, each over a working set of one
// cache level's size: 16 KiB (L1, like the quick-scale scenarios' arrays),
// 1 MiB (L2, like the simulations' arrays) and 16 MiB (beyond L2, like the
// heap a run allocates afresh).
var (
	refBufs  = [3][]uint32{offHeap(1 << 12), offHeap(1 << 18), offHeap(1 << 22)}
	refSteps = [3]int{1 << 15, 1 << 15, 1 << 12}
	// refState seeds each walk, so a walk over the 16 MiB set reaches
	// lines the previous ones did not.
	refState = uint64(0x9e3779b97f4a7c15)
)

// refNominal is the reference work's time on an undisturbed core of that
// host (Intel Xeon, go1.24; the 5th percentile of each walk over about
// 1,500 measurements: 95, 155 and 105 µs), in seconds. Calibrated times
// read as that core's seconds.
const refNominal = 355e-6

// offHeap returns n words of memory outside the Go heap, so the reference
// work's working sets count neither in peak_heap_mb nor in the
// collector's pacing.
func offHeap(n int) []uint32 {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("perfbench: mmap %d bytes: %v", 4*n, err))
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

// refRun runs the reference work once and returns its seconds.
func refRun() float64 {
	t := time.Now()
	for k, buf := range refBufs {
		sink += refWalk(buf, refSteps[k])
	}
	return time.Since(t).Seconds()
}

func refWalk(buf []uint32, steps int) int {
	x := refState
	mask := uint64(len(buf) - 1)
	var acc uint32
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		buf[j]++
		acc += buf[(j*7)&mask]
	}
	refState = x
	return int(acc)
}

// refReps is how many runs of the reference work a measurement of it
// takes.
const refReps = 15

// refTime returns the median of refReps runs of the reference work.
func refTime() float64 {
	ts := make([]float64, refReps)
	for i := range ts {
		ts[i] = refRun()
	}
	return median(ts)
}

// speedProbe samples the host's speed while a unit runs: every probeEvery
// it runs the reference work twice and keeps the second run's time, for
// which the first has brought the L1 and L2 working sets back into the
// caches (so the sample does not depend on what the unit left there). On
// one P, the probe preempts the unit briefly; the unit's time excludes
// the probe's.
type speedProbe struct {
	stop  chan struct{}
	done  chan struct{}
	times []float64
	busy  time.Duration
}

// probeEvery keeps the probe's share of a unit's time near 1%.
const probeEvery = 100 * time.Millisecond

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				t := time.Now()
				refRun()
				p.times = append(p.times, refRun())
				p.busy += time.Since(t)
			}
		}
	}()
	return p
}

// timed runs fn between two measurements of the reference work, with the
// probe running. It returns fn's time in seconds, less the probe's, and
// the factor that calibrates it: refNominal over the median of the two
// measurements and the probe's samples (so a long fn is calibrated by the
// host's speed during it).
func timed(fn func() error) (secs, factor float64, err error) {
	before := refTime()
	p := startProbe()
	t := time.Now()
	err = fn()
	d := time.Since(t)
	close(p.stop)
	<-p.done
	refs := append(p.times, before, refTime())
	return (d - p.busy).Seconds(), refNominal / median(refs), err
}
