package assign

import (
	"fmt"
	"math"

	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// DoubleQLearning is the double-estimator variant of the RL assigner: two
// Q tables are updated alternately, each using the other to evaluate its
// argmax, which removes the positive maximization bias of plain Q-learning
// (van Hasselt, 2010). Part of the F8 ablation.
type DoubleQLearning struct {
	// Params tunes learning; zero fields take defaults.
	Params RLParams
	seed   int64
}

// NewDoubleQLearning returns a double Q-learning assigner.
func NewDoubleQLearning(seed int64) *DoubleQLearning { return &DoubleQLearning{seed: seed} }

// Name implements Assigner.
func (*DoubleQLearning) Name() string { return "double-qlearning" }

// Assign implements Assigner.
func (dq *DoubleQLearning) Assign(in *gap.Instance) (*gap.Assignment, error) {
	p := dq.Params.withDefaults()
	src := xrand.NewSplit(dq.seed, "double-q")
	env := newMDP(in, p.LoadLevels)
	tableA, tableB := newQTable(env), newQTable(env)
	policy := newExplorer(in.M(), false)
	penalty := deadEndPenalty(in)
	actBuf, nextBuf := make([]int, 0, in.M()), make([]int, 0, in.M())
	bufA, bufB := make([]float64, in.M()), make([]float64, in.M())
	nextBufA, nextBufB := make([]float64, in.M()), make([]float64, in.M())
	sumRow := make([]float64, in.M())

	bestOf := make([]int, in.N())
	bestCost := math.Inf(1)
	found := false
	of := make([]int, in.N())

	if c, ok := greedyRollout(env, tableA, of); ok {
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

	eps := p.Epsilon0
	for ep := 0; ep < p.Episodes; ep++ {
		env.reset()
		cost := 0.0
		// As in QLearning, the state acted on is carried from the
		// previous step's lookahead.
		actBuf = env.feasibleActions(actBuf)
		feasibleRun := len(actBuf) > 0
		var eA, eB int32
		var rowA, rowB []float64
		if feasibleRun {
			eA, eB = tableA.internAt(env), tableB.internAt(env)
			rowA, rowB = tableA.row(eA, env.step, bufA), tableB.row(eB, env.step, bufB)
		}
		for feasibleRun {
			// Behaviour policy acts on the sum of the two tables.
			for j := range sumRow {
				sumRow[j] = rowA[j] + rowB[j]
			}
			a := policy.pick(sumRow, actBuf, eps, src)
			i := env.device()
			r := env.take(a)
			cost -= r
			of[i] = a

			// Flip a coin: update one table using the other as
			// the evaluator of its own argmax.
			updateA := src.Bernoulli(0.5)
			var target float64
			var nA, nB int32
			var nextA, nextB []float64
			if env.done() {
				target = r
			} else {
				nextBuf = env.feasibleActions(nextBuf)
				if len(nextBuf) == 0 {
					target = r - penalty
					feasibleRun = false
				} else {
					nA, nB = tableA.internAt(env), tableB.internAt(env)
					nextA, nextB = tableA.row(nA, env.step, nextBufA), tableB.row(nB, env.step, nextBufB)
					nUpd, nEval := nextA, nextB
					if !updateA {
						nUpd, nEval = nextB, nextA
					}
					am, _ := bestQ(nUpd, nextBuf)
					target = r + p.Gamma*nEval[am]
				}
			}
			if updateA {
				tableA.update(eA, a, rowA[a], p.Alpha, target)
			} else {
				tableB.update(eB, a, rowB[a], p.Alpha, target)
			}
			if !feasibleRun || env.done() {
				break
			}
			eA, eB, rowA, rowB = nA, nB, nextA, nextB
			bufA, nextBufA = nextBufA, bufA
			bufB, nextBufB = nextBufB, bufB
			actBuf, nextBuf = nextBuf, actBuf
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
	if !found {
		return nil, fmt.Errorf("assign/double-qlearning: no feasible episode in %d attempts: %w", p.Episodes, gap.ErrInfeasible)
	}
	return finish(in, bestOf, "double-qlearning")
}

// ExpectedSARSA replaces the SARSA sample of the next action with its
// expectation under the epsilon-greedy policy, reducing update variance.
// Part of the F8 ablation.
type ExpectedSARSA struct {
	// Params tunes learning; zero fields take defaults.
	Params RLParams
	seed   int64
}

// NewExpectedSARSA returns an expected-SARSA assigner.
func NewExpectedSARSA(seed int64) *ExpectedSARSA { return &ExpectedSARSA{seed: seed} }

// Name implements Assigner.
func (*ExpectedSARSA) Name() string { return "expected-sarsa" }

// Assign implements Assigner.
func (es *ExpectedSARSA) Assign(in *gap.Instance) (*gap.Assignment, error) {
	p := es.Params.withDefaults()
	src := xrand.NewSplit(es.seed, "expected-sarsa")
	env := newMDP(in, p.LoadLevels)
	table := newQTable(env)
	policy := newExplorer(in.M(), false)
	penalty := deadEndPenalty(in)
	actBuf, nextBuf := make([]int, 0, in.M()), make([]int, 0, in.M())
	buf, nextRowBuf := make([]float64, in.M()), make([]float64, in.M())

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

	eps := p.Epsilon0
	for ep := 0; ep < p.Episodes; ep++ {
		env.reset()
		cost := 0.0
		// As in QLearning, the state acted on is carried from the
		// previous step's lookahead.
		actBuf = env.feasibleActions(actBuf)
		feasibleRun := len(actBuf) > 0
		var e int32
		var row []float64
		if feasibleRun {
			e = table.internAt(env)
			row = table.row(e, env.step, buf)
		}
		for feasibleRun {
			a := policy.pick(row, actBuf, eps, src)
			i := env.device()
			r := env.take(a)
			cost -= r
			of[i] = a

			var target float64
			var next int32
			var nextRow []float64
			if env.done() {
				target = r
			} else {
				nextBuf = env.feasibleActions(nextBuf)
				if len(nextBuf) == 0 {
					target = r - penalty
					feasibleRun = false
				} else {
					next = table.internAt(env)
					nextRow = table.row(next, env.step, nextRowBuf)
					target = r + p.Gamma*expectedValue(nextRow, nextBuf, eps)
				}
			}
			table.update(e, a, row[a], p.Alpha, target)
			if !feasibleRun || env.done() {
				break
			}
			e, row = next, nextRow
			buf, nextRowBuf = nextRowBuf, buf
			actBuf, nextBuf = nextBuf, actBuf
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
	if !found {
		return nil, fmt.Errorf("assign/expected-sarsa: no feasible episode in %d attempts: %w", p.Episodes, gap.ErrInfeasible)
	}
	return finish(in, bestOf, "expected-sarsa")
}

// expectedValue computes E[Q(s', A')] under an epsilon-greedy policy that
// explores uniformly over the feasible set (a simplification of the
// softmax behaviour, adequate as an update target).
func expectedValue(row []float64, feasible []int, eps float64) float64 {
	_, best := bestQ(row, feasible)
	mean := 0.0
	for _, a := range feasible {
		mean += row[a]
	}
	mean /= float64(len(feasible))
	return (1-eps)*best + eps*mean
}
