package cluster

// The virtual-time event queue: a binary min-heap of tick buckets. Every
// pending event is keyed by (deliverAt, seq) — deliverAt picks the bucket,
// and seq is the order events were appended to it, so processing a bucket
// front to back processes events in exactly (deliverAt, seq) order. Since
// every append happens at a deterministic point of the engine's schedule,
// delivery order is a pure function of the seed, never of goroutine
// timing.
//
// Buckets are recycled through a free list: a steady-state lockstep round
// touches exactly two buckets (the tick being processed and the next
// round's wake bucket) and allocates nothing.
//
// Finding the pending bucket of a tick is one array probe in the common
// case: a direct-mapped window indexes pending buckets by tick mod
// queueWindow. A tick whose window entry is held by another pending tick
// goes to the byTick map instead, which is only consulted while it is
// non-empty; with every pending tick less than queueWindow ahead of the
// earliest one (any delay + jitter and retry timeout below it) no two
// collide and nothing is hashed.

// event is one pending network delivery.
type event struct {
	kind      uint8
	requester int32 // node waiting on the pull
	node      int32 // responder (evServe only)
	color     int32 // sampled color (evReply only)
}

const (
	// evServe: a pull request arrives at its responder, which answers
	// with its current color.
	evServe uint8 = iota
	// evReply: a pull response arrives back at the requester.
	evReply
	// evRetry: a lost pull times out; the requester refires it at a
	// fresh uniform target.
	evRetry
)

// bucket holds everything scheduled for one tick: network events for the
// coordinator and round-start wakes for the worker lanes.
type bucket struct {
	at     int64
	events []event
	wakes  []int32
}

// queueWindow is the number of direct-mapped bucket entries (a power of
// two).
const queueWindow = 64

// eventQueue is the min-heap of buckets, with a by-tick index so that
// scheduling into an existing tick is O(1). Every pending bucket is in
// exactly one of window[at % queueWindow] and byTick.
type eventQueue struct {
	heap   []*bucket
	window [queueWindow]*bucket
	byTick map[int64]*bucket
	free   []*bucket
}

func newEventQueue() eventQueue {
	return eventQueue{byTick: make(map[int64]*bucket)}
}

// bucketAt returns the bucket for tick t, creating (or recycling) it if
// none is pending.
func (q *eventQueue) bucketAt(t int64) *bucket {
	slot := &q.window[t&(queueWindow-1)]
	if b := *slot; b != nil && b.at == t {
		return b
	}
	if len(q.byTick) > 0 {
		if b, ok := q.byTick[t]; ok {
			return b
		}
	}
	var b *bucket
	if len(q.free) > 0 {
		b = q.free[len(q.free)-1]
		q.free = q.free[:len(q.free)-1]
	} else {
		b = &bucket{}
	}
	b.at = t
	if *slot == nil {
		*slot = b
	} else {
		q.byTick[t] = b
	}
	q.heap = append(q.heap, b)
	q.up(len(q.heap) - 1)
	return b
}

// pop removes and returns the earliest bucket, or nil when empty.
func (q *eventQueue) pop() *bucket {
	if len(q.heap) == 0 {
		return nil
	}
	b := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	if slot := &q.window[b.at&(queueWindow-1)]; *slot == b {
		*slot = nil
	} else {
		delete(q.byTick, b.at)
	}
	return b
}

// release returns a processed bucket to the free list, keeping its slice
// capacity for reuse.
func (q *eventQueue) release(b *bucket) {
	b.events = b.events[:0]
	b.wakes = b.wakes[:0]
	q.free = append(q.free, b)
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.heap[parent].at <= q.heap[i].at {
			return
		}
		q.heap[parent], q.heap[i] = q.heap[i], q.heap[parent]
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.heap[l].at < q.heap[min].at {
			min = l
		}
		if r < n && q.heap[r].at < q.heap[min].at {
			min = r
		}
		if min == i {
			return
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
}
