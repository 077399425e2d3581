package assign

import (
	"fmt"
	"math"

	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// Greedy places devices heaviest-first, each on its cheapest edge with
// remaining capacity. This is the standard "nearest edge with room"
// strategy that topology-unaware deployments use, and the main
// state-of-the-art baseline in the evaluation.
type Greedy struct{}

// NewGreedy returns the greedy assigner.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements Assigner.
func (*Greedy) Name() string { return "greedy" }

// Assign implements Assigner.
func (g *Greedy) Assign(in *gap.Instance) (*gap.Assignment, error) {
	of := make([]int, in.N())
	residual := residuals(in)
	for _, i := range byDecreasingLoad(in) {
		j := cheapestFeasible(in, residual, i)
		if j < 0 {
			return nil, fmt.Errorf("assign/greedy: device %d has no edge with capacity: %w", i, gap.ErrInfeasible)
		}
		of[i] = j
		residual[j] -= in.Weight[i][j]
	}
	return finish(in, of, "greedy")
}

// RegretGreedy is the Martello–Toth style constructive heuristic:
// repeatedly place the unassigned device whose penalty for not getting its
// best edge (second-best minus best feasible cost) is largest.
type RegretGreedy struct{}

// NewRegretGreedy returns the regret-based greedy assigner.
func NewRegretGreedy() *RegretGreedy { return &RegretGreedy{} }

// Name implements Assigner.
func (*RegretGreedy) Name() string { return "regret-greedy" }

// twoBest is a device's cheapest feasible edge (firstJ, cost first) and
// the cost of the next cheapest, second, on edge secondJ (+Inf and -1
// when only one edge fits).
type twoBest struct {
	first, second   float64
	firstJ, secondJ int
}

// scanTwoBest finds device i's two cheapest feasible edges; ties keep the
// lowest index as the first.
func scanTwoBest(in *gap.Instance, residual []float64, i int) twoBest {
	b := twoBest{first: math.Inf(1), second: math.Inf(1), firstJ: -1, secondJ: -1}
	for j := 0; j < in.M(); j++ {
		if !fits(in, residual, i, j) {
			continue
		}
		c := in.CostMs[i][j]
		switch {
		case c < b.first:
			b.second, b.secondJ, b.first, b.firstJ = b.first, b.firstJ, c, j
		case c < b.second:
			b.second, b.secondJ = c, j
		}
	}
	return b
}

// Assign implements Assigner.
//
// Each device's two cheapest feasible edges are cached. Residuals only
// shrink, so a placement on edge e changes a device's pair only when e
// was one of the two and no longer fits; only those devices are
// rescanned. A solve costs O(n² + n·m) plus one O(m) scan per rescan,
// instead of an O(m) scan per device per placement.
func (rg *RegretGreedy) Assign(in *gap.Instance) (*gap.Assignment, error) {
	n := in.N()
	of := make([]int, n)
	assigned := make([]bool, n)
	residual := residuals(in)
	best := make([]twoBest, n)
	lastEdge := -1
	for placed := 0; placed < n; placed++ {
		bestDev := -1
		bestRegret := math.Inf(-1)
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			b := &best[i]
			if placed == 0 || (b.firstJ == lastEdge || b.secondJ == lastEdge) && !fits(in, residual, i, lastEdge) {
				*b = scanTwoBest(in, residual, i)
			}
			if b.firstJ < 0 {
				return nil, fmt.Errorf("assign/regret-greedy: device %d has no edge with capacity: %w", i, gap.ErrInfeasible)
			}
			regret := b.second - b.first
			if math.IsInf(b.second, 1) {
				// Only one feasible edge left: must place now.
				regret = math.Inf(1)
			}
			if regret > bestRegret {
				bestRegret, bestDev = regret, i
			}
		}
		lastEdge = best[bestDev].firstJ
		of[bestDev] = lastEdge
		assigned[bestDev] = true
		residual[lastEdge] -= in.Weight[bestDev][lastEdge]
	}
	return finish(in, of, "regret-greedy")
}

// FirstFit places devices in index order on the lowest-indexed edge with
// room, ignoring delay entirely — the capacity-only baseline.
type FirstFit struct{}

// NewFirstFit returns the first-fit assigner.
func NewFirstFit() *FirstFit { return &FirstFit{} }

// Name implements Assigner.
func (*FirstFit) Name() string { return "first-fit" }

// Assign implements Assigner.
func (ff *FirstFit) Assign(in *gap.Instance) (*gap.Assignment, error) {
	of := make([]int, in.N())
	residual := residuals(in)
	for i := 0; i < in.N(); i++ {
		placed := false
		for j := 0; j < in.M(); j++ {
			if fits(in, residual, i, j) {
				of[i] = j
				residual[j] -= in.Weight[i][j]
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("assign/first-fit: device %d has no edge with capacity: %w", i, gap.ErrInfeasible)
		}
	}
	return finish(in, of, "first-fit")
}

// RoundRobin cycles through edges, skipping full ones — the load-balancing
// baseline that spreads devices evenly regardless of delay.
type RoundRobin struct{}

// NewRoundRobin returns the round-robin assigner.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Assigner.
func (*RoundRobin) Name() string { return "round-robin" }

// Assign implements Assigner.
func (rr *RoundRobin) Assign(in *gap.Instance) (*gap.Assignment, error) {
	of := make([]int, in.N())
	residual := residuals(in)
	next := 0
	for i := 0; i < in.N(); i++ {
		placed := false
		for tries := 0; tries < in.M(); tries++ {
			j := (next + tries) % in.M()
			if fits(in, residual, i, j) {
				of[i] = j
				residual[j] -= in.Weight[i][j]
				next = (j + 1) % in.M()
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("assign/round-robin: device %d has no edge with capacity: %w", i, gap.ErrInfeasible)
		}
	}
	return finish(in, of, "round-robin")
}

// Random assigns each device to a uniformly random feasible edge — the
// floor any reasonable algorithm must beat.
type Random struct {
	seed int64
}

// NewRandom returns a random assigner with the given seed.
func NewRandom(seed int64) *Random { return &Random{seed: seed} }

// Name implements Assigner.
func (*Random) Name() string { return "random" }

// Assign implements Assigner.
func (r *Random) Assign(in *gap.Instance) (*gap.Assignment, error) {
	src := xrand.NewSplit(r.seed, "random-assign")
	of := make([]int, in.N())
	residual := residuals(in)
	// Heaviest-first still, so pure bad luck doesn't mask capacity
	// infeasibility that other algorithms would survive.
	for _, i := range byDecreasingLoad(in) {
		var feasible []int
		for j := 0; j < in.M(); j++ {
			if fits(in, residual, i, j) {
				feasible = append(feasible, j)
			}
		}
		if len(feasible) == 0 {
			return nil, fmt.Errorf("assign/random: device %d has no edge with capacity: %w", i, gap.ErrInfeasible)
		}
		j := feasible[src.Intn(len(feasible))]
		of[i] = j
		residual[j] -= in.Weight[i][j]
	}
	return finish(in, of, "random")
}
