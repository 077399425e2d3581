// Package sim is a minimal discrete-event simulation engine: a virtual
// clock plus a time-ordered event queue. The cluster simulator in
// internal/cluster drives all request lifecycles through it, so simulated
// results are fully deterministic and independent of wall-clock speed.
package sim

import (
	"fmt"
	"math"
)

// Event is a callback scheduled at a virtual time.
type Event struct {
	// Time is the virtual timestamp (milliseconds) at which Fn runs.
	Time float64
	// Fn is invoked with the engine so handlers can schedule follow-ups.
	Fn func(*Engine)

	seq  int64 // tie-break so equal-time events run in schedule order
	dead bool  // cancelled
}

// before orders events by (Time, seq). seq is unique per engine, so the
// order is total and the pop order does not depend on the heap's shape.
func (a *Event) before(b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events in (Time, seq) order. push
// and pop follow container/heap's Push and Pop step for step, without
// boxing each event in an interface or calling Less and Swap through
// one.
type eventHeap []*Event

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	q := *h
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !q[j].before(q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *eventHeap) pop() *Event {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].before(q[j]) {
			j = j2 // right child
		}
		if !q[j].before(q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	ev := q[n]
	q[n] = nil
	*h = q[:n]
	return ev
}

// Engine owns the clock and the pending-event queue. The zero value is
// ready to use.
type Engine struct {
	now     float64
	queue   eventHeap
	nextSeq int64
	stopped bool
	// processed counts executed events, exposed for tests and progress
	// reporting.
	processed int64
}

// Now returns the current virtual time in milliseconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() int64 { return e.processed }

// Pending returns the number of events still queued (including cancelled
// ones not yet drained).
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.dead {
			n++
		}
	}
	return n
}

// Schedule queues fn to run at absolute virtual time t and returns a handle
// that can cancel it. Scheduling in the past (t < Now) panics: that is
// always a logic error in the caller.
func (e *Engine) Schedule(t float64, fn func(*Engine)) *Event {
	if math.IsNaN(t) || t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	ev := &Event{Time: t, Fn: fn, seq: e.nextSeq}
	e.nextSeq++
	e.queue.push(ev)
	return ev
}

// After queues fn to run delay milliseconds from now.
func (e *Engine) After(delay float64, fn func(*Engine)) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.Schedule(e.now+delay, fn)
}

// Cancel marks ev so it will not run. Cancelling an already-run or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev != nil {
		ev.dead = true
	}
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.dead {
			continue
		}
		e.now = ev.Time
		e.processed++
		ev.Fn(e)
		return true
	}
	return false
}

// Run executes events until the queue drains, Stop is called, or the clock
// passes until (exclusive). Events scheduled exactly at until do not run;
// the clock is left at until if the horizon was hit, otherwise at the last
// executed event. It returns the number of events executed.
func (e *Engine) Run(until float64) int64 {
	e.stopped = false
	start := e.processed
	for !e.stopped {
		// Peek for horizon check.
		var next *Event
		for len(e.queue) > 0 {
			if e.queue[0].dead {
				e.queue.pop()
				continue
			}
			next = e.queue[0]
			break
		}
		if next == nil {
			break
		}
		if next.Time >= until {
			e.now = until
			break
		}
		e.Step()
	}
	return e.processed - start
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() int64 {
	return e.Run(math.Inf(1))
}
