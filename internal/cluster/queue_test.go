package cluster

import (
	"reflect"
	"testing"

	"github.com/ignorecomply/consensus/internal/rng"
)

// refQueue is the map-only reference: pending event ids per tick, popped
// in tick order, each tick's ids in scheduling order.
type refQueue map[int64][]int32

func (q refQueue) pop() (int64, []int32, bool) {
	if len(q) == 0 {
		return 0, nil, false
	}
	first := true
	var t int64
	for at := range q {
		if first || at < t {
			t, first = at, false
		}
	}
	ids := q[t]
	delete(q, t)
	return t, ids, true
}

// TestEventQueueMatchesMapReference drives the windowed queue and the
// map-only reference through random schedules: offsets inside and beyond
// the direct-mapped window, offsets that collide modulo the window with a
// pending tick, and scheduling while a popped bucket is still being
// processed. Pop order must match the reference in (deliverAt, seq), and
// bucketAt must never hand out a popped bucket before its release.
func TestEventQueueMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		q := newEventQueue()
		ref := refQueue{}
		var now int64
		var held *bucket // popped and not yet released
		var id int32
		schedule := func() {
			var off int64
			switch r.IntN(4) {
			case 0: // inside the window
				off = int64(r.IntN(queueWindow))
			case 1: // beyond it
				off = int64(queueWindow + r.IntN(4*queueWindow))
			case 2: // collides modulo the window with a pending tick
				off = int64(r.IntN(3)*queueWindow + r.IntN(3))
			default: // the next few ticks, as the engine mostly schedules
				off = int64(1 + r.IntN(3))
			}
			at := now + off
			b := q.bucketAt(at)
			if b == held {
				t.Fatalf("seed %d: bucketAt(%d) returned the popped bucket of tick %d", seed, at, held.at)
			}
			if b.at != at {
				t.Fatalf("seed %d: bucketAt(%d) returned the bucket of tick %d", seed, at, b.at)
			}
			b.events = append(b.events, event{requester: id})
			ref[at] = append(ref[at], id)
			id++
		}
		// pop releases the bucket popped before, then pops the next one
		// from both queues and compares them; false once both are empty.
		pop := func(op int) bool {
			if held != nil {
				q.release(held)
				held = nil
			}
			b := q.pop()
			at, want, ok := ref.pop()
			if (b != nil) != ok {
				t.Fatalf("seed %d op %d: queue empty=%v, reference empty=%v", seed, op, b == nil, !ok)
			}
			if b == nil {
				return false
			}
			got := make([]int32, len(b.events))
			for i, ev := range b.events {
				got[i] = ev.requester
			}
			if b.at != at || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d: popped tick %d %v, reference tick %d %v", seed, op, b.at, got, at, want)
			}
			now, held = b.at, b
			return true
		}
		for op := 0; op < 3000; op++ {
			if r.IntN(3) > 0 {
				schedule()
			} else {
				pop(op)
			}
		}
		for pop(-1) {
		}
	}
}
