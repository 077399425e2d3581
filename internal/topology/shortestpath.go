package topology

import (
	"fmt"
	"math"

	"taccc/internal/obs"
	"taccc/internal/par"
)

// Infinity marks unreachable pairs in distance results.
var Infinity = math.Inf(1)

// LinkCost maps a link to a non-negative traversal cost. It is the knob
// that makes path computation payload-aware: propagation-only, or
// propagation plus transmission for a given message size.
type LinkCost func(l Link) float64

// LatencyCost returns each link's configured latency; transmission time is
// ignored. This is the cost used for small control messages.
func LatencyCost(l Link) float64 { return l.LatencyMs }

// PayloadCost returns a cost model combining propagation latency and the
// transmission time of a payload of the given size (kilobytes) at the
// link's bandwidth. Links with unspecified bandwidth contribute no
// transmission time.
func PayloadCost(payloadKB float64) LinkCost {
	return func(l Link) float64 {
		d := l.LatencyMs
		if l.BandwidthMbps > 0 {
			// kB -> bits = *8*1000; Mbit/s -> bits/ms = *1000.
			bits := payloadKB * 8 * 1000
			d += bits / (l.BandwidthMbps * 1000)
		}
		return d
	}
}

// pqItem is a Dijkstra priority-queue entry.
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a binary min-heap of pqItems on dist. push and pop mirror
// container/heap's Push and Pop step for step (same sift-up and
// sift-down, same tie handling), so items leave in exactly the order the
// generic heap would give, without boxing each item in an interface.
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2 // right child
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// ShortestPaths holds single-source shortest-path results.
type ShortestPaths struct {
	Source NodeID
	// Dist[v] is the cost of the cheapest path from Source to v, or
	// Infinity if unreachable.
	Dist []float64
	// Prev[v] is the predecessor of v on that path, or -1 for the source
	// and unreachable nodes.
	Prev []NodeID
}

// PathTo reconstructs the node sequence from the source to v, inclusive.
// It returns nil if v is unreachable.
func (sp *ShortestPaths) PathTo(v NodeID) []NodeID {
	if int(v) >= len(sp.Dist) || math.IsInf(sp.Dist[v], 1) {
		return nil
	}
	var rev []NodeID
	for u := v; u != -1; u = sp.Prev[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Dijkstra computes single-source shortest paths from src under the given
// cost model. Costs must be non-negative; a negative cost causes a panic.
func (g *Graph) Dijkstra(src NodeID, cost LinkCost) *ShortestPaths {
	if !g.valid(src) {
		panic(fmt.Sprintf("topology: Dijkstra source %d out of range", src))
	}
	n := len(g.nodes)
	dist := make([]float64, n)
	prev := make([]NodeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = Infinity
		prev[i] = -1
	}
	dist[src] = 0
	q := pq{{node: src, dist: 0}}
	for len(q) > 0 {
		item := q.pop()
		u := item.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, h := range g.adj[u] {
			c := cost(Link{A: u, B: h.to, LatencyMs: h.latencyMs, BandwidthMbps: h.bwMbps})
			if c < 0 {
				panic(fmt.Sprintf("topology: negative link cost %v on %d-%d", c, u, h.to))
			}
			if nd := item.dist + c; nd < dist[h.to] {
				dist[h.to] = nd
				prev[h.to] = u
				q.push(pqItem{node: h.to, dist: nd})
			}
		}
	}
	return &ShortestPaths{Source: src, Dist: dist, Prev: prev}
}

// HopCounts returns the minimum hop count from src to every node via BFS,
// with -1 marking unreachable nodes.
func (g *Graph) HopCounts(src NodeID) []int {
	if !g.valid(src) {
		panic(fmt.Sprintf("topology: HopCounts source %d out of range", src))
	}
	hops := make([]int, len(g.nodes))
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[u] {
			if hops[h.to] == -1 {
				hops[h.to] = hops[u] + 1
				queue = append(queue, h.to)
			}
		}
	}
	return hops
}

// AllPairs computes the full distance matrix under cost by running Dijkstra
// from every node, fanning sources out across all cores. The result is
// row-major: m[u][v]. Use AllPairsWorkers to bound the parallelism.
func (g *Graph) AllPairs(cost LinkCost) [][]float64 {
	return g.AllPairsWorkers(cost, 0)
}

// AllPairsWorkers is AllPairs with an explicit worker count (<= 0 means all
// cores, 1 is fully sequential). Sources are independent — each goroutine
// runs Dijkstra from its own node and writes only its own row — so the
// matrix is identical for every worker count; cost must be safe for
// concurrent calls (the package's cost models are pure functions).
func (g *Graph) AllPairsWorkers(cost LinkCost, workers int) [][]float64 {
	n := len(g.nodes)
	m := make([][]float64, n)
	par.For(par.Workers(workers), n, func(u int) {
		m[u] = g.Dijkstra(NodeID(u), cost).Dist
	})
	return m
}

// FloydWarshall computes all-pairs shortest distances with the classic
// O(n^3) recurrence. It exists as an independent oracle for testing the
// Dijkstra implementation and for very small graphs.
func (g *Graph) FloydWarshall(cost LinkCost) [][]float64 {
	n := len(g.nodes)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = Infinity
			}
		}
	}
	for _, l := range g.Links() {
		c := cost(l)
		if c < m[l.A][l.B] {
			m[l.A][l.B] = c
			m[l.B][l.A] = c
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if math.IsInf(m[i][k], 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if d := m[i][k] + m[k][j]; d < m[i][j] {
					m[i][j] = d
				}
			}
		}
	}
	return m
}

// DelayMatrix is the IoT-by-edge communication-delay matrix derived from a
// topology; it is the bridge between the network substrate and the GAP
// formulation.
type DelayMatrix struct {
	// IoT and Edge list the node IDs backing each row/column.
	IoT  []NodeID
	Edge []NodeID
	// DelayMs[i][j] is the delay from IoT[i] to Edge[j], Infinity if
	// disconnected.
	DelayMs [][]float64
}

// NewDelayMatrix computes shortest-path delays from every IoT node to every
// edge node under the given cost model. Dijkstra runs from each edge node
// (there are typically far fewer edges than IoT devices), with sources
// fanned out across all cores. Use NewDelayMatrixWorkers to bound the
// parallelism.
func NewDelayMatrix(g *Graph, cost LinkCost) *DelayMatrix {
	return NewDelayMatrixWorkers(g, cost, 0)
}

// NewDelayMatrixWorkers is NewDelayMatrix with an explicit worker count
// (<= 0 means all cores, 1 is fully sequential). Each goroutine owns one
// edge source and writes only column j of the pre-sized matrix, so the
// result is identical for every worker count. The rows share one backing
// array, and Dijkstra's heap holds its items unboxed, so the build makes
// O(edges) allocations however many IoT rows and heap pushes it has.
func NewDelayMatrixWorkers(g *Graph, cost LinkCost, workers int) *DelayMatrix {
	return NewDelayMatrixTraced(g, cost, workers, nil)
}

// NewDelayMatrixTraced is NewDelayMatrixWorkers with wall-clock tracing:
// when phase is a live obs phase (the "delay-matrix" span of a pipeline
// trace), each worker's shard is emitted as a child span named "shard"
// with worker ID, items processed and busy time, giving Perfetto one
// timeline row per worker. A nil phase is exactly NewDelayMatrixWorkers:
// no clock reads, no spans, bit-identical matrix.
func NewDelayMatrixTraced(g *Graph, cost LinkCost, workers int, phase *obs.Phase) *DelayMatrix {
	iot := g.NodesOfKind(KindIoT)
	edge := g.NodesOfKind(KindEdge)
	ne := len(edge)
	flat := make([]float64, len(iot)*ne)
	m := make([][]float64, len(iot))
	for i := range m {
		m[i] = flat[i*ne : (i+1)*ne : (i+1)*ne]
	}
	var now func() float64
	if phase != nil {
		now = phase.NowMs
	}
	shards := par.ForShards(par.Workers(workers), ne, now, func(j int) {
		sp := g.Dijkstra(edge[j], cost)
		for i, d := range iot {
			m[i][j] = sp.Dist[d]
		}
	})
	for _, sh := range shards {
		phase.Span("shard", sh.StartMs, sh.EndMs, map[string]interface{}{
			"worker":  sh.Worker,
			"items":   sh.Items,
			"busy_ms": sh.BusyMs,
		})
	}
	return &DelayMatrix{IoT: iot, Edge: edge, DelayMs: m}
}

// NumIoT returns the number of IoT rows.
func (dm *DelayMatrix) NumIoT() int { return len(dm.IoT) }

// NumEdge returns the number of edge columns.
func (dm *DelayMatrix) NumEdge() int { return len(dm.Edge) }

// MinDelay returns the smallest delay in row i and the column achieving it.
// It panics for an out-of-range row and returns (Infinity, -1) when the row
// is fully disconnected.
func (dm *DelayMatrix) MinDelay(i int) (float64, int) {
	if i < 0 || i >= len(dm.DelayMs) {
		panic(fmt.Sprintf("topology: MinDelay row %d out of range", i))
	}
	best, bestJ := Infinity, -1
	for j, d := range dm.DelayMs[i] {
		if d < best {
			best, bestJ = d, j
		}
	}
	return best, bestJ
}
