package topology

import (
	"container/heap"
	"testing"

	"taccc/internal/xrand"
)

// boxedPQ is the container/heap form of pq that Dijkstra used before the
// typed push/pop: the reference its pop order must match.
type boxedPQ []pqItem

func (q boxedPQ) Len() int            { return len(q) }
func (q boxedPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q boxedPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *boxedPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *boxedPQ) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// TestPQMatchesContainerHeap drives the typed heap and container/heap
// with the same random push/pop stream. Distances come from a small set,
// so most pops choose among ties, and every popped item must match: equal
// pop order is what keeps every Dijkstra distance and predecessor
// unchanged.
func TestPQMatchesContainerHeap(t *testing.T) {
	src := xrand.New(11)
	for trial := 0; trial < 50; trial++ {
		var typed pq
		boxed := &boxedPQ{}
		for op := 0; op < 2000; op++ {
			if len(typed) == 0 || src.Float64() < 0.55 {
				it := pqItem{node: NodeID(op), dist: float64(src.Intn(8))}
				typed.push(it)
				heap.Push(boxed, it)
				continue
			}
			got, want := typed.pop(), heap.Pop(boxed).(pqItem)
			if got != want {
				t.Fatalf("trial %d op %d: popped %+v, container/heap %+v", trial, op, got, want)
			}
		}
		if len(typed) != boxed.Len() {
			t.Fatalf("trial %d: %d items left, container/heap %d", trial, len(typed), boxed.Len())
		}
	}
}

// TestDelayMatrixAllocsScaleWithEdges pins the delay-matrix build to
// O(edges) allocations: one Dijkstra per edge source allocates its
// distance, predecessor and visited arrays plus the heap's amortised
// growth, and the IoT rows share one backing array. A boxed heap would
// allocate once per push, and pushes here outnumber the bound many times.
func TestDelayMatrixAllocsScaleWithEdges(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race-detector shadow allocations")
	}
	const edges = 8
	for _, iot := range []int{500, 4000} {
		g, err := Generate(FamilyHierarchical, Config{
			NumIoT: iot, NumEdge: edges, NumGateways: 2 * edges, NumRouters: edges, Seed: 3,
		}, PlaceUniform)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			NewDelayMatrixWorkers(g, LatencyCost, 1)
		})
		if limit := 32.0 * edges; allocs > limit {
			t.Fatalf("%d IoT: %.0f allocs, want <= %.0f (O(edges), not O(pushes) >= %d)", iot, allocs, limit, edges*iot)
		}
		t.Logf("%d IoT, %d edges: %.0f allocs", iot, edges, allocs)
	}
}
