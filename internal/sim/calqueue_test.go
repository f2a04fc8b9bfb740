package sim

import (
	"container/heap"
	"fmt"
	"math/bits"
	"testing"
)

// refEvent is one pending entry of the reference scheduler: a plain binary
// heap ordered by (at, akey, seq), exactly the contract the calendar queue
// must reproduce.
type refEvent struct {
	at   Time
	akey Time
	seq  uint64
	id   int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].akey != h[j].akey {
		return h[i].akey < h[j].akey
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refHarness drives one scheduler and the reference heap side by side:
// every event it arms is recorded in both, and every callback asserts the
// scheduler fired exactly the reference minimum before running the
// workload's mutation.
type refHarness struct {
	t       *testing.T
	s       *Scheduler
	rng     *RNG
	ref     refHeap
	dead    map[uint64]bool // seqs stopped or superseded by a reset
	timers  map[int]*Timer
	liveSeq map[int]uint64 // timer id → its pending seq
	pending []int          // ids of pending timers, the selection pool
	keyed   int            // pending ScheduleKeyed events, which have no handle
	nextID  int
	total   int
	fired   int
	stopped int
	mutate  func() // run inside every callback, after the order check
}

func newRefHarness(t *testing.T, seed uint64) *refHarness {
	return &refHarness{
		t:       t,
		s:       NewScheduler(),
		rng:     NewRNG(seed),
		dead:    map[uint64]bool{},
		timers:  map[int]*Timer{},
		liveSeq: map[int]uint64{},
		mutate:  func() {},
	}
}

// fire asserts that the scheduler, firing id now, agrees with the
// reference heap's minimum, then runs the mutation.
func (h *refHarness) fire(id int) {
	for h.dead[h.ref[0].seq] {
		delete(h.dead, h.ref[0].seq)
		heap.Pop(&h.ref)
	}
	top := heap.Pop(&h.ref).(refEvent)
	if top.id != id || top.at != h.s.Now() {
		h.t.Fatalf("pop order diverged: calendar fired id=%d at %d, heap expected id=%d at %d",
			id, h.s.Now(), top.id, top.at)
	}
	h.fired++
	h.mutate()
}

// record files the event the scheduler just armed into the reference heap
// and returns its seq.
func (h *refHarness) record(at, akey Time, id int) uint64 {
	seq := h.s.seq - 1 // the seq the arming call just consumed
	heap.Push(&h.ref, refEvent{at: at, akey: akey, seq: seq, id: id})
	return seq
}

func (h *refHarness) newID() int {
	id := h.nextID
	h.nextID++
	h.total++
	return id
}

// schedule arms a fresh timer at `at`.
func (h *refHarness) schedule(at Time) {
	id := h.newID()
	tm := h.s.NewTimer(func() {
		h.removePending(id)
		delete(h.liveSeq, id)
		h.fire(id)
	})
	h.timers[id] = tm
	tm.ResetAt(at)
	h.liveSeq[id] = h.record(at, h.s.Now(), id)
	h.pending = append(h.pending, id)
}

// scheduleKeyed files a handle-less event under an explicit akey.
func (h *refHarness) scheduleKeyed(at, akey Time) {
	id := h.newID()
	h.keyed++
	h.s.ScheduleKeyed(at, akey, func() {
		h.keyed--
		h.fire(id)
	})
	h.record(at, akey, id)
}

func (h *refHarness) removePending(id int) {
	for i, p := range h.pending {
		if p == id {
			h.pending[i] = h.pending[len(h.pending)-1]
			h.pending = h.pending[:len(h.pending)-1]
			return
		}
	}
	h.t.Fatalf("id %d not in pending set", id)
}

// stopRandom stops a random pending timer.
func (h *refHarness) stopRandom() {
	victim := h.pending[h.rng.IntN(len(h.pending))]
	h.timers[victim].Stop()
	h.dead[h.liveSeq[victim]] = true
	h.removePending(victim)
	delete(h.liveSeq, victim)
	h.stopped++
}

// resetRandom re-arms a random pending timer at `at`.
func (h *refHarness) resetRandom(at Time) {
	victim := h.pending[h.rng.IntN(len(h.pending))]
	h.dead[h.liveSeq[victim]] = true
	h.timers[victim].ResetAt(at)
	h.liveSeq[victim] = h.record(at, h.s.Now(), victim)
}

// finish asserts the drained scheduler fired or stopped every event and
// left nothing live in the reference heap.
func (h *refHarness) finish() {
	if len(h.pending) != 0 || h.keyed != 0 {
		h.t.Fatalf("%d timers and %d keyed events never fired", len(h.pending), h.keyed)
	}
	live := 0
	for _, e := range h.ref {
		if !h.dead[e.seq] {
			live++
		}
	}
	if live != 0 {
		h.t.Fatalf("reference heap still holds %d live events after drain", live)
	}
	if h.fired+h.stopped != h.total {
		h.t.Fatalf("fired %d + stopped %d != scheduled %d", h.fired, h.stopped, h.total)
	}
}

// TestSchedulerMatchesReferenceHeap drives randomized schedule/stop/reset
// workloads through the calendar-queue scheduler and a reference binary
// heap side by side, asserting the calendar queue pops every event in
// exactly the heap's (at, akey, seq) order.
//
// The seed=N mode mixes slot-periodic bursts (the simulator's dominant
// pattern), uniform noise, far-future outliers (forcing day advances and
// width retunes), heavy mid-run cancellation, and reschedules — from
// inside firing callbacks, which is where cursor-rewind bugs live.
//
// The tied/seed=N mode is the router fan-out shape, where crowded days are
// served from the sorted run: bursts of over a thousand events at one
// timestamp, drained in RunUntil steps whose limits fall inside runs,
// with callbacks that stop and reset run members, add same-instant events
// (the run's append path), file keyed events whose akey precedes now (its
// ordered-insert path), and arm a further burst big enough to grow the
// calendar while a run is active; and with earlier events filed while a
// run waits at a RunUntil horizon, so the cursor rewinds past it.
func TestSchedulerMatchesReferenceHeap(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 20260808} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newRefHarness(t, seed)
			s, rng := h.s, h.rng
			const maxEvents = 4000
			h.mutate = func() {
				switch r := rng.IntN(10); {
				case r < 4 && h.total < maxEvents:
					// Slot-periodic burst: a cluster in the next "slot".
					slotStart := s.Now() + Time(Millisecond)
					for j := 0; j < 4 && h.total < maxEvents; j++ {
						h.schedule(slotStart + Time(rng.IntN(int(Millisecond))))
					}
				case r < 6 && h.total < maxEvents:
					// Far-future outlier: stresses day advance + retune.
					h.schedule(s.Now() + Time(1+rng.IntN(int(10*Second))))
				case r < 8 && len(h.pending) > 0:
					h.stopRandom()
				case len(h.pending) > 0:
					h.resetRandom(s.Now() + Time(1+rng.IntN(int(Second))))
				}
			}

			// Seed load: slot bursts plus uniform noise, including exact
			// time ties (same at, distinct seq) to pin the tie-break.
			for slot := 0; slot < 20; slot++ {
				base := Time(slot) * Time(5*Millisecond)
				for j := 0; j < 8; j++ {
					h.schedule(base + Time(rng.IntN(int(5*Millisecond))))
				}
				h.schedule(base) // deliberate tie with slot start
				h.schedule(base)
			}
			for i := 0; i < 100; i++ {
				h.schedule(Time(rng.IntN(int(2 * Second))))
			}

			s.Run()
			h.finish()
		})
	}
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("tied/seed=%d", seed), func(t *testing.T) {
			h := newRefHarness(t, seed)
			s, rng := h.s, h.rng
			const burst = 1200
			grewInRun, limitInRun := false, false
			lateBurst := false
			h.mutate = func() {
				q := &s.cal
				if !lateBurst && q.runLive() && s.Now() > 20*Millisecond {
					// A second fan-out armed mid-drain: enough events to
					// double the bucket count while this run is active.
					lateBurst = true
					n := len(q.buckets)
					at := s.Now() + 3*Millisecond
					for j := 0; j < 2*n; j++ {
						h.schedule(at)
					}
					grewInRun = len(q.buckets) > n
				}
				switch r := rng.IntN(20); {
				case r < 3 && len(h.pending) > 0:
					h.stopRandom()
				case r < 5 && len(h.pending) > 0:
					// Back onto this instant, so it re-enters the run last.
					h.resetRandom(s.Now())
				case r < 7 && len(h.pending) > 0:
					h.resetRandom(s.Now() + Time(rng.IntN(int(Millisecond))))
				case r < 9:
					h.schedule(s.Now())
				case r < 11:
					h.scheduleKeyed(s.Now(), Time(rng.IntN(int(s.Now())+1)))
				case r < 13:
					h.schedule(s.Now() + Time(1+rng.IntN(int(10*Microsecond))))
				}
			}

			for i := 0; i < burst; i++ {
				h.schedule(10 * Millisecond)
			}
			for i := 0; i < burst; i++ {
				h.schedule(30 * Millisecond)
			}
			// A horizon short of the first burst leaves its run built and
			// waiting; the noise that follows lands on earlier days, so the
			// cursor rewinds past the live run.
			s.RunUntil(Microsecond)
			if !s.cal.runLive() {
				t.Fatal("no run was left waiting at the horizon")
			}
			for i := 0; i < 50; i++ {
				h.schedule(s.Now() + Time(rng.IntN(int(60*Millisecond))))
			}

			for s.Pending() > 0 {
				s.RunUntil(s.Now() + Time(1+rng.IntN(int(20*Microsecond))))
				if s.cal.runLive() {
					limitInRun = true
				}
			}
			h.finish()
			if !grewInRun || !limitInRun {
				t.Fatalf("workload missed a path: calendar grew during a run %v, RunUntil stopped inside a run %v",
					grewInRun, limitInRun)
			}
		})
	}
}

// TestTiedBurstDrainCost pins the cost of the router fan-out shape:
// draining k events at one timestamp must examine O(k log k) bucket
// entries, not the O(k²) a rescan of the crowded day per pop would cost.
// The count is read from the width feedback's own scan counter, summed
// across pops (a pop that closes a feedback window restarts the counter,
// so its share is lost — a few pops out of k).
func TestTiedBurstDrainCost(t *testing.T) {
	const k = 4096
	s := NewScheduler()
	for i := 0; i < k; i++ {
		s.Schedule(Millisecond, func() {})
	}
	q := &s.cal
	steps := 0
	for q.count > 0 {
		before, peeks := q.bucketSteps, q.peeks
		if q.pop(false, 0) == nil {
			t.Fatal("pop returned nil on a non-empty queue")
		}
		if q.peeks > peeks {
			steps += q.bucketSteps - before
		}
	}
	if limit := 2 * k * bits.Len(k); steps > limit {
		t.Fatalf("draining %d tied events examined %d bucket entries, want at most %d (2k·log2 k)", k, steps, limit)
	}
}

// BenchmarkSchedulerSlotPeriodic models the simulator's dominant load: many
// sessions, each burst-scheduling a slot's worth of events and draining
// them before the next slot. The calendar queue's day width tunes itself to
// the intra-slot spacing, making insert and pop O(1) amortized where the
// binary heap paid O(log n) per operation on the burst.
func BenchmarkSchedulerSlotPeriodic(b *testing.B) {
	const sessions = 16
	const perSlot = 64
	slotDur := Time(250 * Millisecond)
	spacing := slotDur / perSlot

	s := NewScheduler()
	n := 0
	var runSlot func(sess int)
	runSlot = func(sess int) {
		start := s.Now()
		for j := 0; j < perSlot; j++ {
			s.Schedule(start+Time(j)*spacing+Time(sess), func() { n++ })
		}
		if n < b.N {
			s.Schedule(start+slotDur, func() { runSlot(sess) })
		}
	}
	b.ResetTimer()
	for sess := 0; sess < sessions; sess++ {
		sess := sess
		s.Schedule(Time(sess)*(slotDur/sessions), func() { runSlot(sess) })
	}
	s.Run()
}

// BenchmarkSchedulerTiedBurst models the router fan-out: one packet
// reaching an edge router starts every access link's serialization at
// once, so each slot arms fanout timers for a single instant. Without the
// sorted run each of those pops rescanned the whole crowded day, O(k²) per
// burst. b.N counts fired events.
func BenchmarkSchedulerTiedBurst(b *testing.B) {
	const fanout = 1000
	slotDur := Time(250 * Millisecond)

	s := NewScheduler()
	n := 0
	timers := make([]*Timer, fanout)
	for i := range timers {
		timers[i] = s.NewTimer(func() { n++ })
	}
	var slot func()
	slot = func() {
		at := s.Now() + Millisecond
		for _, tm := range timers {
			tm.ResetAt(at)
		}
		if n < b.N {
			s.Schedule(s.Now()+slotDur, slot)
		}
	}
	b.ResetTimer()
	s.Schedule(0, slot)
	s.Run()
}
