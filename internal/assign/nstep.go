package assign

import (
	"fmt"
	"math"

	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// NStepQLearning propagates reward information n steps back per update
// (episodic n-step Q-learning with per-episode batch updates): the TD
// target for step t is the discounted sum of the next n rewards plus a
// bootstrap from the best feasible action n steps ahead. Longer horizons
// move credit for capacity dead-ends toward the early placements that
// caused them. N = 1 recovers one-step targets.
type NStepQLearning struct {
	// Params tunes learning; zero fields take defaults.
	Params RLParams
	// N is the backup horizon (default 3).
	N    int
	seed int64
}

// NewNStepQLearning returns an n-step Q-learning assigner.
func NewNStepQLearning(seed int64) *NStepQLearning { return &NStepQLearning{seed: seed} }

// Name implements Assigner.
func (*NStepQLearning) Name() string { return "nstep-qlearning" }

// Assign implements Assigner.
func (nq *NStepQLearning) Assign(in *gap.Instance) (*gap.Assignment, error) {
	p := nq.Params.withDefaults()
	nStep := nq.N
	if nStep <= 0 {
		nStep = 3
	}
	src := xrand.NewSplit(nq.seed, "nstep-q")
	env := newMDPSeeded(in, p.LoadLevels, !p.NoCostSeeding)
	table := newQTable(env)
	policy := newExplorer(in.M(), p.UniformExploration)
	penalty := deadEndPenalty(in)
	actBuf := make([]int, 0, in.M())
	buf := make([]float64, in.M())

	bestOf := make([]int, in.N())
	bestCost := math.Inf(1)
	found := false
	of := make([]int, in.N())

	if c, ok := greedyRollout(env, table, of); ok {
		bestCost = c
		copy(bestOf, of)
		found = true
	}
	if !p.NoWarmStart {
		if c, warm := warmStart(in); warm != nil && c < bestCost {
			bestCost = c
			copy(bestOf, warm)
			found = true
		}
	}

	// Per-step trajectory storage, reused across episodes. Updates are
	// batched at the episode's end and each step visits a distinct
	// state, so a state's Q row is the same at the batch as at its
	// visit: a step records its Q(s,a) and the bootstrap value
	// max_a' Q(s,a') there instead of the row itself.
	type step struct {
		entry  int32
		action int
		reward float64
		q      float64
		best   float64
	}
	traj := make([]step, 0, in.N())

	eps := p.Epsilon0
	for ep := 0; ep < p.Episodes; ep++ {
		env.reset()
		traj = traj[:0]
		cost := 0.0
		feasibleRun := true
		for !env.done() {
			actBuf = env.feasibleActions(actBuf)
			if len(actBuf) == 0 {
				feasibleRun = false
				break
			}
			e := table.internAt(env)
			row := table.row(e, env.step, buf)
			a, best := bestQ(row, actBuf)
			if src.Bernoulli(eps) {
				a = policy.explore(row, actBuf, src)
			}
			i := env.device()
			r := env.take(a)
			cost -= r
			of[i] = a
			traj = append(traj, step{entry: e, action: a, reward: r, q: row[a], best: best})
		}
		// Terminal value: 0 for a completed episode, a large penalty
		// for a dead end (the trajectory is punished through its tail).
		terminal := 0.0
		if !feasibleRun {
			terminal = -penalty
		}
		// Batch n-step backward updates against the current table.
		T := len(traj)
		for t := 0; t < T; t++ {
			g := 0.0
			discount := 1.0
			end := t + nStep
			if end > T {
				end = T
			}
			for k := t; k < end; k++ {
				g += discount * traj[k].reward
				discount *= p.Gamma
			}
			if end < T {
				// Bootstrap from the state entered at step `end`,
				// which is the state acted on at index `end` of
				// the trajectory.
				g += discount * traj[end].best
			} else {
				g += discount * terminal
			}
			table.update(traj[t].entry, traj[t].action, traj[t].q, p.Alpha, g)
		}
		if feasibleRun && cost < bestCost {
			bestCost = cost
			copy(bestOf, of)
			found = true
		}
		eps *= p.EpsilonDecay
		if eps < p.EpsilonMin {
			eps = p.EpsilonMin
		}
	}
	if c, ok := greedyRollout(env, table, of); ok && c < bestCost {
		bestCost = c
		copy(bestOf, of)
		found = true
	}
	if !found {
		return nil, fmt.Errorf("assign/nstep-qlearning: no feasible episode in %d attempts: %w", p.Episodes, gap.ErrInfeasible)
	}
	return finish(in, bestOf, "nstep-qlearning")
}
