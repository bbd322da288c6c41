package sim

import (
	"extrap/internal/vtime"
)

// evKind discriminates future-event-list entries.
type evKind uint8

const (
	// evComputeDone fires when a thread's current compute segment ends.
	evComputeDone evKind = iota
	// evMsgArrive fires when a message becomes available to software at
	// its destination processor.
	evMsgArrive
	// evPollTick fires at a poll-policy chunk boundary.
	evPollTick
	// evResume fires when a blocked thread should continue (reply
	// consumed, barrier release granted, service backlog drained).
	evResume
)

// noMsg marks an event that carries no message reference.
const noMsg int32 = -1

// event is one scheduled simulation occurrence. seq breaks time ties
// deterministically in schedule order; gen invalidates superseded
// compute-done/poll events (e.g. after an interrupt extends a segment).
// The struct is deliberately pointer-free (messages are slab indices, not
// pointers) so heap sift operations move events without GC write
// barriers; profiles showed the barriers costing as much as the sifts.
// seq and gen are uint32: both are bounded by the engine's 2^28 event
// budget, far below overflow.
type event struct {
	at     vtime.Time
	seq    uint32
	gen    uint32
	thread int32
	msg    int32 // msgSlab index, or noMsg
	kind   evKind
}

// fel is the future event list: a deterministic min-heap of events by
// value, ordered by (time, seq), fronted by a one-slot min cache. The
// cache holds the global minimum whenever occupied (top ≤ every heap
// element, maintained inductively by schedule), so the common
// pop-dispatch-schedule ping-pong — a thread scheduling its next segment
// end before anything else is due — costs two comparisons instead of a
// sift-down plus sift-up. Storing events inline rather than behind
// pointers keeps the simulation hot loop free of per-event heap
// allocations — the backing array is reused as events come and go.
//
// The heap is 4-ary rather than binary: sift-down dominates (every pop
// walks from the root), and a fan-out of 4 halves the tree depth while
// keeping each level's four children in at most two cache lines of
// 40-byte events. Pop order is a pure function of the (time, seq) total
// order — seq is unique — so arity cannot change results, only the
// constant factor.
type fel struct {
	q      []event
	top    event
	topOK  bool
	nextSq uint32
}

// before orders events by (time, schedule sequence).
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// less orders the heap by (time, schedule sequence).
func (f *fel) less(i, j int) bool {
	return before(&f.q[i], &f.q[j])
}

// up restores the heap invariant after appending at index i. The moving
// event rides in a register while displaced ancestors drop into the
// hole, so each level costs one 40-byte copy instead of a swap's three.
// The comparison sequence matches the swapping formulation exactly, so
// the resulting heap shape — and therefore pop order — is unchanged.
func (f *fel) up(i int) {
	ev := f.q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !before(&ev, &f.q[parent]) {
			break
		}
		f.q[i] = f.q[parent]
		i = parent
	}
	f.q[i] = ev
}

// down restores the heap invariant after replacing the root, with the
// same hole-based single-copy-per-level scheme as up.
func (f *fel) down(i int) {
	n := len(f.q)
	ev := f.q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		least := first
		for c := first + 1; c < last; c++ {
			if f.less(c, least) {
				least = c
			}
		}
		if !before(&f.q[least], &ev) {
			break
		}
		f.q[i] = f.q[least]
		i = least
	}
	f.q[i] = ev
}

// push inserts ev into the heap proper, below the min cache.
func (f *fel) push(ev event) {
	f.q = append(f.q, ev)
	f.up(len(f.q) - 1)
}

func (f *fel) schedule(at vtime.Time, kind evKind, thread int32, gen uint32, msg int32) {
	ev := event{at: at, seq: f.nextSq, kind: kind, thread: thread, gen: gen, msg: msg}
	f.nextSq++
	f.insert(ev)
}

// insert adds an event whose seq was already assigned (by schedule or by
// the engine's continuation register), maintaining the min-cache
// invariant.
func (f *fel) insert(ev event) {
	if !f.topOK {
		// Install as the cached min only when nothing in the heap beats it;
		// otherwise the invariant top ≤ min(heap) would break.
		if len(f.q) == 0 || before(&ev, &f.q[0]) {
			f.top, f.topOK = ev, true
			return
		}
		f.push(ev)
		return
	}
	if before(&ev, &f.top) {
		// New global minimum: demote the cached top into the heap. top was
		// ≤ every heap element, and ev < top, so the invariant holds.
		f.push(f.top)
		f.top = ev
		return
	}
	f.push(ev)
}

// wouldPopNext reports whether ev precedes everything currently queued —
// i.e. pop would return ev immediately after an insert(ev). The cached
// top is ≤ every heap element, so one comparison decides.
func (f *fel) wouldPopNext(ev *event) bool {
	if f.topOK {
		return before(ev, &f.top)
	}
	return len(f.q) == 0 || before(ev, &f.q[0])
}

func (f *fel) pop() event {
	if f.topOK {
		f.topOK = false
		return f.top
	}
	root := f.q[0]
	n := len(f.q) - 1
	f.q[0] = f.q[n]
	f.q = f.q[:n]
	if n > 0 {
		f.down(0)
	}
	return root
}

func (f *fel) empty() bool { return !f.topOK && len(f.q) == 0 }
