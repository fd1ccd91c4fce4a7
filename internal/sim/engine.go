// Package sim provides the deterministic discrete-event simulation engine
// that underpins every timing model in the repository.
//
// The engine maintains a priority queue of events ordered by (time, sequence
// number). Sequence numbers make execution fully deterministic: two events
// scheduled for the same cycle fire in the order they were scheduled. All
// simulator components run on a single goroutine, so no locking is needed
// and results are bit-reproducible for a given seed.
//
// Performance architecture: the queue is a two-tier calendar. A cycle-level
// machine schedules almost every event at now+1..now+k for small k (cache
// hops are 6 cycles, an off-chip access 293, commit backoff tens), so the
// near future — the next wheelSize cycles — is a timing wheel: one FIFO
// slot per cycle, push and pop both O(1), with an occupancy bitmap making
// "next non-empty cycle" a couple of word scans. Events beyond the wheel
// horizon (watchdog polls, pre-arbitration timeouts) spill into a
// monomorphic 4-ary overflow heap. A wheel record is only {callback,
// payload} (24 bytes): its slot fixes its cycle and FIFO order fixes its
// sequence. Only heap records carry (time, seq). Drained slot arrays go
// onto a LIFO spare stack unzeroed (every record is overwritten before it
// is read again; Reset zeroes them) and the next slot to fill takes the
// most recent one, so the few live slots reuse cache-hot storage. Both
// tiers are allocation-free in steady state: slot arrays and the heap
// slice are the pool, and append reuses their capacity.
//
// There is one callback form: an event is a typed callback func(any) and
// its payload word (AtCall/AfterCall). Schedulers reuse one long-lived
// callback and thread per-event state through a pointer payload, usually
// a pooled record, so no event captures a closure and a steady-state
// event allocates nothing.
//
// Ordering across the tiers is exact (see DESIGN.md §16): an event is
// heap-resident only if its time was ≥ now+wheelSize when scheduled, and
// wheel-resident only if it was < now+wheelSize. now never decreases, so
// for any single cycle t every heap event at t was scheduled before every
// wheel event at t. Heap events order among themselves by their stored
// seq, wheel events by FIFO position, so draining the heap first on time
// ties reproduces the exact (time, seq) order of a single priority queue,
// bit for bit.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Time is a simulation timestamp in processor cycles.
type Time uint64

// call is one wheel-resident event record: a callback and its payload
// word, 24 bytes. The slot a record sits in fixes its cycle and its
// position in the slot's FIFO fixes its sequence, so neither is stored.
// An interface holding a pointer-shaped payload does not allocate.
type call struct {
	cb  func(any)
	arg any
}

// event is one overflow-heap record, 40 bytes: a heap has no slot or FIFO
// position to imply the key, so the record carries (at, seq) itself.
type event struct {
	at  Time
	seq uint64
	call
}

// arity of the overflow event heap. 4-ary trades slightly more comparisons
// per sift-down for half the tree depth and much better cache locality
// than a binary heap; on the overflow queue's depths it measures fastest.
const arity = 4

// Timing-wheel geometry. wheelSize cycles of lookahead covers every
// steady-state latency in the machine (hop 6, directory access, off-chip
// 293, commit backoff ≤ 51, squash penalties); only coarse timers (5000-
// cycle watchdog polls, 20000+-cycle pre-arbitration timeouts) overflow
// to the heap. Power of two so slot index and bitmap scans are masks.
const (
	wheelBits  = 9
	wheelSize  = 1 << wheelBits // cycles of O(1) lookahead
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy bitmap words
)

// slot is one wheel cycle's FIFO: recs in schedule order, head the drain
// cursor, so pop never shifts storage. An empty slot owns no storage
// (recs == nil); its last drained array went to the spare stack.
type slot struct {
	recs []call
	head int
}

// Engine is a discrete-event simulator clock and scheduler.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Time
	// seq numbers overflow-heap records in schedule order; wheel records
	// take their order from their slot's FIFO instead.
	seq uint64
	// slots[t&wheelMask] holds the events scheduled for cycle t, for t in
	// [now, now+wheelSize).
	slots [wheelSize]slot
	// spare is a LIFO stack of drained slot arrays. A slot that
	// receives its first event takes the most recently drained array, so
	// the few live slots cycle through cache-hot storage instead of
	// touching each of the wheelSize slots' arrays once per revolution.
	spare [][]call
	// occ is the slot-occupancy bitmap: bit i set iff slots[i] has
	// undrained events. wcount is the total across all slots.
	occ    [wheelWords]uint64
	wcount int
	// heap is the far-future overflow tier (events ≥ wheelSize cycles
	// ahead at scheduling time).
	heap []event
	rng  *rand.Rand
	// fired counts events executed, as a cheap progress/livelock metric.
	fired uint64
	// limit aborts the run if the clock passes it (0 = no limit).
	limit Time
}

// NewEngine returns an engine whose RNG is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. Components that
// need randomness (e.g. backoff jitter) must use this source so whole-system
// runs stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired reports the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SetLimit installs a wall-clock (in cycles) abort limit. Run panics with a
// descriptive message if the limit is exceeded; this converts protocol
// livelocks into loud test failures instead of hangs.
func (e *Engine) SetLimit(t Time) { e.limit = t }

// AtCall schedules cb(arg) at absolute time t. It is the engine's one
// scheduling form: callers keep one long-lived cb (a package-level
// function or a method value bound once) and pass per-event state through
// arg — a pointer-shaped payload does not allocate when stored in the
// interface word. Scheduling in the past is a programming error and
// panics.
//
// An event within the wheel horizon is an O(1) append to its cycle's FIFO
// slot; one beyond it goes to the overflow heap.
//
//sim:hotpath
func (e *Engine) AtCall(t Time, cb func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	if t >= e.now+wheelSize {
		e.seq++
		e.pushHeap(event{at: t, seq: e.seq, call: call{cb: cb, arg: arg}})
		return
	}
	i := int(t) & wheelMask
	sl := &e.slots[i]
	if sl.recs == nil {
		// First event of this cycle: adopt the most recently drained
		// array, if any, and mark the slot occupied.
		if n := len(e.spare); n > 0 {
			sl.recs = e.spare[n-1]
			e.spare = e.spare[:n-1]
		}
		e.occ[i>>6] |= 1 << uint(i&63)
	}
	sl.recs = append(sl.recs, call{cb: cb, arg: arg})
	e.wcount++
}

// AfterCall schedules cb(arg) d cycles from now.
//
//sim:hotpath
func (e *Engine) AfterCall(d Time, cb func(any), arg any) { e.AtCall(e.now+d, cb, arg) }

// Pending reports the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.wcount + len(e.heap) }

// Reset returns the engine to its just-constructed state while retaining
// the slot arrays' and heap slice's capacity, so a warm machine reuse
// (core.Runner) pays no event-queue reallocation. Leftover events are
// dropped: Run can stop with events still queued (the all-procs-done
// condition), and a recycled engine must not fire a previous run's
// callbacks. Occupied slots' arrays move to the spare stack and every
// spare array is zeroed over its full capacity, so dead callbacks and
// payloads are released to the GC; the RNG is re-seeded so the next run
// draws the exact stream a cold NewEngine would — the determinism
// contract of warm reuse.
func (e *Engine) Reset(seed int64) {
	for w, word := range e.occ {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			e.spare = append(e.spare, e.slots[i].recs[:0])
			e.slots[i] = slot{}
		}
		e.occ[w] = 0
	}
	for _, recs := range e.spare {
		clear(recs[:cap(recs)]) // release callbacks/payloads held by dead records
	}
	e.wcount = 0
	clear(e.heap) // release callbacks/payloads from any undrained events
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.limit = 0
	e.rng = rand.New(rand.NewSource(seed))
}

// less orders heap records by (time, sequence), the determinism contract.
func (a *event) less(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushHeap appends ev to the overflow heap and restores the heap property
// by sifting up.
//
//sim:hotpath
func (e *Engine) pushHeap(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !h[i].less(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// wheelNext returns the earliest cycle with a pending wheel event. It must
// only be called with wcount > 0. The scan walks the occupancy bitmap
// circularly from now's slot — at most wheelWords+1 word reads, usually
// one, since the wheel invariant guarantees every occupied slot maps to a
// unique cycle in [now, now+wheelSize).
//
//sim:hotpath
func (e *Engine) wheelNext() Time {
	start := int(e.now) & wheelMask
	w := start >> 6
	word := e.occ[w] &^ (1<<uint(start&63) - 1)
	for {
		if word != 0 {
			slot := w<<6 | bits.TrailingZeros64(word)
			return e.now + Time((slot-start)&wheelMask)
		}
		w = (w + 1) & (wheelWords - 1)
		word = e.occ[w]
		if w == start>>6 {
			// Wrapped: only the start word's low bits (cycles just under
			// now+wheelSize) remain unexamined.
			word &= 1<<uint(start&63) - 1
			slot := w<<6 | bits.TrailingZeros64(word)
			return e.now + Time((slot-start)&wheelMask)
		}
	}
}

// popWheel removes and returns the head of cycle t's FIFO slot. A fully
// drained slot's array goes onto the spare stack as it is: its records are
// dead but not zeroed. None is read again before it is overwritten, since
// the next slot to adopt the array appends from index 0 and head bounds
// every read. Reset zeroes the spare arrays, so a parked machine retains
// no dead callbacks or payloads.
//
//sim:hotpath
func (e *Engine) popWheel(t Time) call {
	i := int(t) & wheelMask
	sl := &e.slots[i]
	c := sl.recs[sl.head]
	sl.head++
	if sl.head == len(sl.recs) {
		e.spare = append(e.spare, sl.recs[:0])
		*sl = slot{}
		e.occ[i>>6] &^= 1 << uint(i&63)
	}
	e.wcount--
	return c
}

// pop removes the earliest event across both tiers and returns its time
// and record. On a time tie the heap wins: a heap-resident event at cycle
// t was scheduled while t was beyond the wheel horizon, i.e. before every
// wheel-resident event at t (package comment).
//
//sim:hotpath
func (e *Engine) pop() (Time, call) {
	if e.wcount > 0 {
		t := e.wheelNext()
		if len(e.heap) == 0 || t < e.heap[0].at {
			return t, e.popWheel(t)
		}
	}
	ev := e.popHeap()
	return ev.at, ev.call
}

// popHeap removes and returns the earliest overflow-heap event. The
// vacated tail slot is zeroed so the slice does not retain dead callbacks
// or payloads.
//
//sim:hotpath
func (e *Engine) popHeap() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release references held by the record
	h = h[:n]
	// Sift down.
	i := 0
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		best := first
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].less(&h[best]) {
				best = c
			}
		}
		if !h[best].less(&h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	e.heap = h
	return top
}

// nextAt reports the earliest pending event time across both tiers.
//
//sim:hotpath
func (e *Engine) nextAt() (Time, bool) {
	if e.wcount > 0 {
		t := e.wheelNext()
		if len(e.heap) > 0 && e.heap[0].at < t {
			t = e.heap[0].at
		}
		return t, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].at, true
	}
	return 0, false
}

// Step fires the single earliest event and returns true, or returns false
// if the queue is empty.
//
//sim:hotpath
func (e *Engine) Step() bool {
	if e.wcount == 0 && len(e.heap) == 0 {
		return false
	}
	at, c := e.pop()
	if at > e.now {
		e.now = at
	}
	if e.limit != 0 && e.now > e.limit {
		panic(fmt.Sprintf("sim: cycle limit %d exceeded (now %d, %d events fired); likely livelock", e.limit, e.now, e.fired))
	}
	e.fired++
	c.cb(c.arg)
	return true
}

// Run fires events until the queue drains or stop returns true. A nil stop
// runs to quiescence.
func (e *Engine) Run(stop func() bool) {
	for e.Step() {
		if stop != nil && stop() {
			return
		}
	}
}

// RunUntil fires events until the clock reaches t or the queue drains.
func (e *Engine) RunUntil(t Time) {
	for {
		at, ok := e.nextAt()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
