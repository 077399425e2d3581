package sim

import (
	"container/heap"
	"testing"

	"taccc/internal/xrand"
)

// boxedHeap is the container/heap form of eventHeap that the engine used
// before the typed push/pop: the reference its pop order must match.
type boxedHeap []*Event

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i].before(h[j]) }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// TestEventHeapMatchesContainerHeap drives the typed heap and
// container/heap with the same stream of schedules, cancellations and
// pops, the way the engine does: times come from a few values at or
// after the last popped one, so most pops choose among ties broken by
// seq, and cancelled events stay queued until popped. Every pop must
// return the same event.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	src := xrand.New(5)
	for trial := 0; trial < 50; trial++ {
		var typed eventHeap
		boxed := &boxedHeap{}
		var pending []*Event
		var now float64
		var seq int64
		for op := 0; op < 3000; op++ {
			switch r := src.Float64(); {
			case len(typed) == 0 || r < 0.5:
				ev := &Event{Time: now + float64(src.Intn(4)), seq: seq}
				seq++
				typed.push(ev)
				heap.Push(boxed, ev)
				pending = append(pending, ev)
			case r < 0.6:
				pending[src.Intn(len(pending))].dead = true
			default:
				got, want := typed.pop(), heap.Pop(boxed).(*Event)
				if got != want {
					t.Fatalf("trial %d op %d: popped (%v, %d), container/heap (%v, %d)",
						trial, op, got.Time, got.seq, want.Time, want.seq)
				}
				now = got.Time
			}
		}
		for len(typed) > 0 {
			if got, want := typed.pop(), heap.Pop(boxed).(*Event); got != want {
				t.Fatalf("trial %d drain: popped (%v, %d), container/heap (%v, %d)",
					trial, got.Time, got.seq, want.Time, want.seq)
			}
		}
		if boxed.Len() != 0 {
			t.Fatalf("trial %d: container/heap has %d events left", trial, boxed.Len())
		}
	}
}
