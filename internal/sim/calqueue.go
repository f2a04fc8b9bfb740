package sim

import "slices"

// This file implements the scheduler's pending-event store as a calendar
// (bucket) queue in the style of Brown's calendar queues, tuned for the
// slot-periodic schedules this simulator produces: virtual time is cut
// into fixed-width "days", each day hashes to one bucket of an unordered
// power-of-two array, and a cursor sweeps the calendar day by day. Insert
// appends to a bucket and removal swaps with the bucket's last element,
// both O(1); finding the minimum scans only the cursor's day, which the
// width feedback below keeps near one event when the day's events have
// distinct timestamps, so pop is O(1) amortized there where the previous
// container/heap implementation paid O(log n) pointer sifts
// (heap.Pop/Push were >55% of the Fig01/Fig07 CPU profile).
//
// No width splits events that share a timestamp, and the simulator makes
// such days every slot: one packet reaching an edge router starts N
// equal-rate access-link serializations at once. Scanning a day of k tied
// events for each of its k pops would cost O(k²), so a crowded day — one
// found in a bucket of at least calRunMin entries — is moved once into a
// run sorted by (at, akey, seq), in the spirit of the ladder queue's
// sorted bottom rung (Tang, Goh & Thng, 2005). Its pops are then O(1) from
// the run's head. An insert onto the run's day appends when it sorts last,
// which a same-instant event in a serial run always does. Any other insert
// shifts the shorter side of the run, and a removal leaves a keyed
// tombstone. Sparse days keep the plain scan. It walks a handful of
// contiguous entries, which is cheaper than any sorted structure whose
// insert is more than an append.
//
// Buckets store (at, seq) inline next to the event pointer: the minimum
// scan — the hottest loop in the whole simulator — walks contiguous
// entries and never dereferences an event, so it runs at cache speed
// regardless of where the freelist scattered the event objects.
//
// Ordering is exactly the heap's: strict (at, seq) order. All events whose
// timestamp falls inside the cursor's day live in the cursor's bucket, or
// all of them in the run, so the minimum found there by (at, seq) is the
// global minimum; ties at equal timestamps resolve by the same
// insertion-stable seq the heap compared, which is what keeps every seeded
// golden byte-identical across the swap.
//
// Sizing is grow-only: simulation populations burst every slot (a sender
// schedules its whole slot's emissions at once, then the calendar drains),
// and shrinking on the trough just to re-grow on the next burst would
// reallocate every bucket twice per slot. A calendar that grew once stays
// grown; bucket capacity persists, so steady state inserts allocate
// nothing. The day width self-tunes instead: it is seeded from the
// observed mean inter-event spacing whenever the calendar grows, then
// corrected by a feedback loop measuring where the minimum scan actually
// spends its steps — many events examined per day means days are too wide
// (halve), many empty days walked means days are too narrow (double).
// Retuning refiles events in place through a reusable staging buffer.
const (
	calMinBuckets = 64
	// calInitialShift makes the initial day width 2^20 ns (~1.05 ms). Day
	// widths are always powers of two so filing an event is a shift and a
	// mask, not a 64-bit division — place and the cursor math sit on the
	// hottest path in the simulator.
	calInitialShift = 20
	// The feedback window: every calRetuneWindow pops, compare the two
	// step counters against calRetuneScan steps per pop and adjust the
	// day width when either kind of work dominates.
	calRetuneWindow = 1024
	calRetuneScan   = 8
	// calRunMin is the bucket length at which the cursor's day is served
	// from a sorted run instead of rescanned on every pop. The feedback
	// tolerates days of about 2*calRetuneScan entries (draining such a day
	// by scans examines calRetuneScan entries per pop), and on days that
	// small the scan beats sorting; a day four times as crowded is most
	// likely one the width cannot thin, a tied burst. At 2*calRetuneScan
	// the figure runs and fuzz campaigns ran 8–19% slower, and even with
	// fillRun's feedback charge they served a tenth to a fifth of their
	// pops from runs of about 17 distinct instants.
	calRunMin = 8 * calRetuneScan
	// calInRun is the bkt coordinate of an event filed in the run; its idx
	// is then its position in the run.
	calInRun = -1
)

// calEntry files one pending event with its ordering key inline. Ordering
// is (at, akey, seq) — see the event type for why the middle component is
// redundant in serial runs but load-bearing for sharded ones. In the run a
// removed member stays behind as a tombstone: e is nil, the key is kept so
// the run remains sorted for the ordered insert's binary search.
type calEntry struct {
	at   Time
	akey Time
	seq  uint64
	e    *event
}

// cmpEntry orders entries by (at, akey, seq). It is written out rather
// than built from cmp.Compare so that it stays cheap enough to inline into
// the run's append test.
func cmpEntry(a, b calEntry) int {
	switch {
	case a.at != b.at:
		return cmpTime(a.at, b.at)
	case a.akey != b.akey:
		return cmpTime(a.akey, b.akey)
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// cmpTime orders two distinct times.
func cmpTime(a, b Time) int {
	if a < b {
		return -1
	}
	return 1
}

type calQueue struct {
	buckets [][]calEntry
	// run holds the cursor's day, sorted, while that day is crowded: its
	// live members are run[runHead:] minus tombstones. While runHead <
	// len(run) every pending event of the cursor's day is in it. Once
	// flushed, refile reuses the same array as its staging buffer, so
	// neither use allocates in steady state.
	run     []calEntry
	runHead int
	mask    int  // len(buckets)-1; the bucket count is a power of two
	shift   uint // log2 of the day width
	width   Time // day width (1<<shift): the span of virtual time one bucket covers
	count   int
	curBkt  int  // bucket under the cursor
	curTop  Time // exclusive end of the day under the cursor

	// Scan-cost accounting driving the width feedback.
	peeks       int
	bucketSteps int // events examined inside days (high => width too large)
	dayAdvances int // empty days walked past (high => width too small)
}

func (q *calQueue) init() {
	q.buckets = make([][]calEntry, calMinBuckets)
	q.mask = calMinBuckets - 1
	q.shift = calInitialShift
	q.width = 1 << q.shift
	q.curTop = q.width
}

// place files e into the bucket owning its day. e.at is never negative
// (the scheduler panics on past scheduling before any event reaches the
// queue, and the clock starts at zero).
func (q *calQueue) place(e *event) {
	day := uint64(e.at) >> q.shift
	b := int(day) & q.mask
	e.bkt = b
	e.idx = len(q.buckets[b])
	q.buckets[b] = append(q.buckets[b], entryOf(e))
}

func entryOf(e *event) calEntry {
	return calEntry{at: e.at, akey: e.akey, seq: e.seq, e: e}
}

func (q *calQueue) setCursor(day uint64) {
	q.curBkt = int(day) & q.mask
	q.curTop = Time(day+1) << q.shift
}

func (q *calQueue) insert(e *event) {
	if q.buckets == nil {
		q.init()
	}
	if q.count >= 2*len(q.buckets) {
		q.grow()
	}
	q.count++
	dayStart := q.curTop - q.width
	if q.runHead < len(q.run) && e.at >= dayStart && e.at < q.curTop {
		q.insertRun(e)
		return
	}
	q.place(e)
	if q.count == 1 || e.at < dayStart {
		// The event lands on a day before the cursor — or the queue was
		// empty, leaving the cursor parked wherever the last drain ended —
		// so rewind to the new event's day. This preserves the scan
		// invariant: no pending event's day precedes the cursor's day. A
		// run can be waiting on the cursor's day here (a RunUntil horizon
		// fell before its head), so it goes back to the buckets first.
		if q.runHead < len(q.run) {
			q.flushRun()
		}
		q.setCursor(uint64(e.at) >> q.shift)
	}
}

// insertRun files e, which lands on the run's day, into the sorted run.
// A same-instant event in a serial run sorts after every pending one (its
// seq is the largest yet, and its akey is now), so the common case is an
// append; anything else — a later-akey peer in a sharded run, or a later
// timestamp on the same day — opens a slot by shifting whichever side of
// the insertion point is shorter, into the free prefix left by popped
// heads or onto the end.
func (q *calQueue) insertRun(e *event) {
	en := entryOf(e)
	e.bkt = calInRun
	n := len(q.run)
	if cmpEntry(q.run[n-1], en) < 0 {
		e.idx = n
		q.run = append(q.run, en)
		return
	}
	p, _ := slices.BinarySearchFunc(q.run[q.runHead:], en, cmpEntry)
	p += q.runHead
	if q.runHead > 0 && p-q.runHead < n-p {
		q.runHead--
		p--
		copy(q.run[q.runHead:p], q.run[q.runHead+1:p+1])
		q.reindexRun(q.runHead, p)
	} else {
		q.run = append(q.run, calEntry{})
		copy(q.run[p+1:], q.run[p:n])
		q.reindexRun(p+1, n+1)
	}
	q.run[p] = en
	e.idx = p
}

// reindexRun refreshes the idx coordinate of the live members in run[lo:hi]
// after a shift. The shifted entries count as scan steps, so a day whose
// inserts keep landing out of order still tells the width feedback that
// its days are too wide.
func (q *calQueue) reindexRun(lo, hi int) {
	q.bucketSteps += hi - lo
	for i := lo; i < hi; i++ {
		if e := q.run[i].e; e != nil {
			e.idx = i
		}
	}
}

// fillRun moves the cursor's day, which holds at least one entry, out of
// its bucket into the run, sorted, leaving the bucket's later-year entries
// behind.
func (q *calQueue) fillRun() {
	q.run, q.runHead = q.run[:0], 0
	arr := q.buckets[q.curBkt]
	keep := arr[:0]
	for _, en := range arr {
		if en.at < q.curTop {
			q.run = append(q.run, en)
		} else {
			en.e.idx = len(keep)
			keep = append(keep, en)
		}
	}
	clear(arr[len(keep):])
	q.buckets[q.curBkt] = keep
	slices.SortFunc(q.run, cmpEntry)
	distinct := 0
	for i := range q.run {
		q.run[i].e.bkt = calInRun
		q.run[i].e.idx = i
		if i == 0 || q.run[i].at != q.run[i-1].at {
			distinct++
		}
	}
	// Charge the width feedback what scanning the day would have cost had
	// ties been free: k·d/2 for k entries at d distinct instants. A tied
	// burst (d = 1), which no width can split, costs about one step per
	// pop; a day crowded with distinct instants costs what the scan did,
	// so it still narrows the days, and narrow days are cheaper to scan
	// than a run is to sort and insert into.
	q.bucketSteps += len(q.run) * distinct / 2
}

// popRun serves pop from the run's head, which must be live, or leaves it
// queued and returns nil when bounded and the head lies past limit.
func (q *calQueue) popRun(bounded bool, limit Time) *event {
	q.bucketSteps++
	e := q.run[q.runHead].e
	if bounded && e.at > limit {
		q.maybeRetune()
		return nil
	}
	q.run[q.runHead] = calEntry{}
	q.runHead++
	e.idx = -1
	q.count--
	q.maybeRetune()
	return e
}

// runLive moves runHead past the tombstones removals left at the front
// and reports whether the run still holds a live member.
func (q *calQueue) runLive() bool {
	for q.runHead < len(q.run) && q.run[q.runHead].e == nil {
		q.runHead++
	}
	return q.runHead < len(q.run)
}

// flushRun files every live run member back into its bucket and empties
// the run, ahead of anything that moves the cursor or refiles the calendar.
func (q *calQueue) flushRun() {
	for i := q.runHead; i < len(q.run); i++ {
		if e := q.run[i].e; e != nil {
			q.place(e)
		}
	}
	clear(q.run[q.runHead:])
	q.run, q.runHead = q.run[:0], 0
}

// remove unfiles a pending event in O(1): a bucket member by swapping it
// with the last element of its bucket, a run member by leaving a tombstone.
// The cursor never moves here; removal can only leave the cursor's day
// emptier, which the scan skips naturally.
func (q *calQueue) remove(e *event) {
	if e.bkt == calInRun {
		q.run[e.idx].e = nil
	} else {
		arr := q.buckets[e.bkt]
		last := len(arr) - 1
		moved := arr[last]
		arr[e.idx] = moved
		moved.e.idx = e.idx
		arr[last] = calEntry{}
		q.buckets[e.bkt] = arr[:last]
	}
	e.idx = -1
	q.count--
}

// pop removes and returns the earliest pending event by (at, akey, seq).
// In bounded mode an event past limit is left queued and pop returns nil —
// the run loop's horizon check is fused into the scan. Callers must ensure
// count > 0.
//
// A non-empty run holds the cursor's whole day, so its head is the global
// minimum. Otherwise the cursor's bucket is scanned, and if the day has an
// entry and the bucket is crowded, the day becomes the run.
//
// The minimum scan and the swap-removal share one loop so the winning
// bucket slice and index stay in registers: the cursor advances day by day
// past empty days, and the first day holding an entry holds the global
// minimum. A full cycle without a hit means every pending event is at
// least one calendar year ahead, so pop falls back to a direct sweep for
// the global minimum, jumps the cursor to its day, and retries — sparse
// populations therefore cost O(buckets) per pop instead of walking empty
// virtual time.
func (q *calQueue) pop(bounded bool, limit Time) *event {
	q.peeks++
	if q.runLive() {
		return q.popRun(bounded, limit)
	}
	for cycle := 0; cycle < len(q.buckets); cycle++ {
		arr := q.buckets[q.curBkt]
		// Seeding bestAt with the day's exclusive end folds the "entry is on
		// this day" bound into the ordinary best comparison: an entry at
		// exactly curTop belongs to a later day and can never win the tie
		// branches, because akeys are never negative and no uint64 seq
		// is < 0.
		best := -1
		bestAt := q.curTop
		var bestAkey Time
		var bestSeq uint64
		for i := range arr {
			en := &arr[i]
			if en.at < bestAt ||
				(en.at == bestAt && (en.akey < bestAkey ||
					(en.akey == bestAkey && en.seq < bestSeq))) {
				best, bestAt, bestAkey, bestSeq = i, en.at, en.akey, en.seq
			}
		}
		q.bucketSteps += len(arr)
		if best >= 0 {
			if len(arr) >= calRunMin {
				q.fillRun()
				return q.popRun(bounded, limit)
			}
			e := arr[best].e
			if bounded && e.at > limit {
				q.maybeRetune()
				return nil
			}
			last := len(arr) - 1
			if best != last {
				moved := arr[last]
				arr[best] = moved
				moved.e.idx = best
			}
			arr[last] = calEntry{}
			q.buckets[q.curBkt] = arr[:last]
			e.idx = -1
			q.count--
			q.maybeRetune()
			return e
		}
		q.dayAdvances++
		q.curBkt = (q.curBkt + 1) & q.mask
		q.curTop += q.width
		// Bounded horizon cut: once the cursor's day starts past the limit,
		// no pending event can be within it (the cursor invariant puts every
		// pending event at or after the cursor's day), so stop instead of
		// walking to wherever the next event actually lives. Windowed sharded
		// runs hit this every window — without the cut each window-end pop
		// walks the idle stretch to the next slot timer, or worse, falls
		// through to the full-calendar sweep.
		if bounded && q.curTop-q.width > limit {
			q.maybeRetune()
			return nil
		}
	}
	var beste *event
	for _, arr := range q.buckets {
		for i := range arr {
			en := &arr[i]
			if beste == nil || en.at < beste.at ||
				(en.at == beste.at && (en.akey < beste.akey ||
					(en.akey == beste.akey && en.seq < beste.seq))) {
				beste = en.e
			}
		}
	}
	q.setCursor(uint64(beste.at) >> q.shift)
	return q.pop(bounded, limit)
}

// nextAt reports the earliest pending timestamp without removing anything.
// It advances the cursor past empty days exactly as pop would (idempotent
// under the cursor invariant) but leaves the width-feedback counters alone
// so probes between windows don't skew the retune loop.
func (q *calQueue) nextAt() (Time, bool) {
	if q.count == 0 {
		return 0, false
	}
	if q.runLive() {
		return q.run[q.runHead].at, true
	}
	for cycle := 0; cycle < len(q.buckets); cycle++ {
		arr := q.buckets[q.curBkt]
		bestAt := q.curTop
		found := false
		for i := range arr {
			if arr[i].at < bestAt {
				bestAt = arr[i].at
				found = true
			}
		}
		if found {
			return bestAt, true
		}
		q.curBkt = (q.curBkt + 1) & q.mask
		q.curTop += q.width
	}
	var best Time
	first := true
	for _, arr := range q.buckets {
		for i := range arr {
			if first || arr[i].at < best {
				best = arr[i].at
				first = false
			}
		}
	}
	q.setCursor(uint64(best) >> q.shift)
	return best, true
}

// maybeRetune closes the width feedback loop once per window: if the scan
// examined many events per day, days hold too much and the width halves;
// if it mostly walked empty days, days are too fine and the width doubles.
// Either way events are refiled in place — no bucket reallocation — and
// the counters restart, so a population whose density drifts (slot bursts
// draining into sparse idle stretches) converges within a window or two.
func (q *calQueue) maybeRetune() {
	if q.peeks < calRetuneWindow {
		return
	}
	// Test the empty-day signal before the crowded-day one. Slot-periodic
	// populations schedule bursts of events at the *same* timestamp (every
	// receiver's timer on a slot boundary), and no width separates ties, so
	// a "halve on crowded scans" response to a tied burst can never win —
	// it just narrows the days until the wheel aliases and the walks blow
	// up, and with both counters then high, halving first means halving
	// forever (the collapse pins the width at one nanosecond). Widening
	// first is safe in every regime: scanning a tied burst costs the same
	// at any width, while each empty day walked is pure overhead that
	// widening removes.
	if q.dayAdvances > calRetuneScan*q.peeks {
		q.setShift(int(q.shift) + 1)
	} else if q.bucketSteps > calRetuneScan*q.peeks {
		q.setShift(int(q.shift) - 1)
	}
	q.peeks, q.bucketSteps, q.dayAdvances = 0, 0, 0
}

// setShift changes the day width to 1<<sh and refiles every event.
func (q *calQueue) setShift(sh int) {
	if sh < 0 {
		sh = 0
	}
	if uint(sh) == q.shift {
		return
	}
	q.shift = uint(sh)
	q.width = 1 << q.shift
	q.refile(len(q.buckets))
}

// grow doubles the bucket count and re-seeds the day width from the
// population's observed mean inter-event spacing, the estimate the
// feedback loop then refines.
func (q *calQueue) grow() {
	q.flushRun()
	var lo, hi Time
	first := true
	for _, arr := range q.buckets {
		for i := range arr {
			at := arr[i].at
			if first || at < lo {
				lo = at
			}
			if first || at > hi {
				hi = at
			}
			first = false
		}
	}
	if q.count > 1 && hi > lo {
		// Seed the width with the power of two nearest the mean spacing.
		w := (hi - lo) / Time(q.count-1)
		sh := 0
		for Time(1)<<(sh+1) <= w {
			sh++
		}
		q.shift = uint(sh)
		q.width = 1 << q.shift
	}
	q.refile(2 * len(q.buckets))
}

// refile redistributes every pending event under the current width into n
// buckets, reusing the existing bucket arrays (and their capacity) when n
// is unchanged, and leaves the cursor on the earliest event's day with the
// run flushed. Event pointers stay valid throughout — only their bkt/idx
// coordinates move — so a caller holding peek's result may still remove it
// afterwards.
func (q *calQueue) refile(n int) {
	q.flushRun()
	staged := q.run
	var lo Time
	for bi, arr := range q.buckets {
		for i := range arr {
			if len(staged) == 0 || arr[i].at < lo {
				lo = arr[i].at
			}
			staged = append(staged, arr[i])
			arr[i] = calEntry{}
		}
		q.buckets[bi] = arr[:0]
	}
	if n != len(q.buckets) {
		q.buckets = make([][]calEntry, n)
		q.mask = n - 1
	}
	for i := range staged {
		q.place(staged[i].e)
		staged[i] = calEntry{}
	}
	q.run = staged[:0]
	if q.count > 0 {
		q.setCursor(uint64(lo) >> q.shift)
	}
}
