package assign

import (
	"fmt"
	"math"

	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// Bandit is the stateless RL ablation: each device position runs an
// independent UCB1 bandit over edges, with feasibility masking. It sees no
// load signature, so it measures how much the Q-learning state actually
// buys (experiment F8).
type Bandit struct {
	// Episodes is the number of full placement rounds (default 400).
	Episodes int
	// Explore is the UCB exploration coefficient (default sqrt(2)).
	Explore float64
	seed    int64
}

// NewBandit returns a UCB bandit assigner with default parameters.
func NewBandit(seed int64) *Bandit { return &Bandit{seed: seed} }

// Name implements Assigner.
func (*Bandit) Name() string { return "bandit" }

// Assign implements Assigner.
func (b *Bandit) Assign(in *gap.Instance) (*gap.Assignment, error) {
	episodes := b.Episodes
	if episodes <= 0 {
		episodes = 400
	}
	explore := b.Explore
	if explore <= 0 {
		explore = math.Sqrt2
	}
	src := xrand.NewSplit(b.seed, "bandit")
	env := newMDP(in, 1)
	n, m := in.N(), in.M()

	// Per-position statistics.
	counts := make([][]float64, n)
	sums := make([][]float64, n)
	for t := range counts {
		counts[t] = make([]float64, m)
		sums[t] = make([]float64, m)
	}
	pulls := make([]float64, n)

	actBuf, untried := make([]int, 0, m), make([]int, 0, m)
	of := make([]int, n)
	bestOf := make([]int, n)
	bestCost := math.Inf(1)
	found := false

	for ep := 0; ep < episodes; ep++ {
		env.reset()
		cost := 0.0
		feasibleRun := true
		for !env.done() {
			t := env.step
			actBuf = env.feasibleActions(actBuf)
			if len(actBuf) == 0 {
				feasibleRun = false
				break
			}
			a := ucbPick(counts[t], sums[t], pulls[t], actBuf, explore, src, untried)
			i := env.device()
			r := env.take(a)
			cost -= r
			of[i] = a
			counts[t][a]++
			sums[t][a] += r
			pulls[t]++
		}
		if feasibleRun && cost < bestCost {
			bestCost = cost
			copy(bestOf, of)
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("assign/bandit: no feasible episode in %d attempts: %w", episodes, gap.ErrInfeasible)
	}
	return finish(in, bestOf, "bandit")
}

// ucbPick chooses among feasible arms by UCB1, preferring untried arms
// (random among them to break ties fairly). untried is scratch space.
func ucbPick(counts, sums []float64, total float64, feasible []int, explore float64, src *xrand.Source, untried []int) int {
	untried = untried[:0]
	for _, a := range feasible {
		if counts[a] == 0 {
			untried = append(untried, a)
		}
	}
	if len(untried) > 0 {
		return untried[src.Intn(len(untried))]
	}
	best, bestV := feasible[0], math.Inf(-1)
	logT := math.Log(total + 1)
	for _, a := range feasible {
		v := sums[a]/counts[a] + explore*math.Sqrt(logT/counts[a])
		if v > bestV {
			best, bestV = a, v
		}
	}
	return best
}
