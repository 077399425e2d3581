package assign

import (
	"fmt"
	"math"

	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/xrand"
)

// RLParams are the shared hyper-parameters of the tabular RL assigners.
// Zero fields take the documented defaults.
type RLParams struct {
	// Episodes is the number of training episodes (default 400).
	Episodes int
	// Alpha is the learning rate (default 0.3).
	Alpha float64
	// Gamma is the discount factor; the placement MDP is a finite
	// horizon with additive delay, so the default is 1.0.
	Gamma float64
	// Epsilon0, EpsilonMin and EpsilonDecay shape the exploration
	// schedule: eps(k) = max(EpsilonMin, Epsilon0 * EpsilonDecay^k)
	// (defaults 0.4, 0.02, 0.99).
	Epsilon0     float64
	EpsilonMin   float64
	EpsilonDecay float64
	// LoadLevels quantizes each edge's utilization into this many levels
	// when forming the state signature (default 4). Level count trades
	// table size against state resolution; the F8 ablation sweeps it.
	LoadLevels int

	// Ablation switches (experiment F11). Production configurations
	// leave all three false.
	//
	// NoCostSeeding initializes Q rows to zero instead of the negated
	// delay, so the untrained policy has no domain knowledge.
	NoCostSeeding bool
	// NoWarmStart skips priming the incumbent with the regret-greedy
	// constructive solution.
	NoWarmStart bool
	// UniformExploration replaces cost-biased softmax exploration with
	// uniform random choice over feasible edges.
	UniformExploration bool
}

func (p RLParams) withDefaults() RLParams {
	if p.Episodes <= 0 {
		p.Episodes = 400
	}
	if p.Alpha <= 0 {
		p.Alpha = 0.3
	}
	if p.Gamma <= 0 {
		p.Gamma = 1.0
	}
	if p.Epsilon0 <= 0 {
		p.Epsilon0 = 0.4
	}
	if p.EpsilonMin <= 0 {
		p.EpsilonMin = 0.02
	}
	if p.EpsilonDecay <= 0 || p.EpsilonDecay >= 1 {
		p.EpsilonDecay = 0.99
	}
	if p.LoadLevels <= 0 {
		p.LoadLevels = 4
	}
	return p
}

// mdp is the episodic placement MDP shared by the RL assigners: step t
// places device order[t]; the state is (t, quantized utilization vector);
// an action picks a feasible edge; the reward is the negated delay.
type mdp struct {
	in       *gap.Instance
	order    []int
	levels   int
	residual []float64
	loads    []float64
	// lvl[j] is edge j's quantized utilization (see level) and hash the
	// Zobrist hash of lvl. take keeps both current by updating only the
	// edge whose load changed.
	lvl  []uint8
	hash uint64
	step int
	// rowInit[t] is the Q-row initialization for any state at step t.
	rowInit [][]float64
}

func newMDP(in *gap.Instance, levels int) *mdp {
	return newMDPSeeded(in, levels, true)
}

// newMDPSeeded builds the MDP with or without cost-seeded Q rows.
func newMDPSeeded(in *gap.Instance, levels int, costSeed bool) *mdp {
	m := &mdp{
		in:       in,
		order:    byDecreasingLoad(in),
		levels:   levels,
		residual: make([]float64, in.M()),
		loads:    make([]float64, in.M()),
		lvl:      make([]uint8, in.M()),
	}
	// Cost-seeded Q initialization: a fresh row for step t starts at
	// -cost(device(t), j), so the untrained greedy policy already acts
	// like min-delay greedy and learning only has to correct for
	// capacity interactions. Unreachable edges start at -Inf and are
	// never picked either way.
	m.rowInit = make([][]float64, in.N())
	flat := make([]float64, in.N()*in.M())
	for t, dev := range m.order {
		row := flat[t*in.M() : (t+1)*in.M()]
		for j := 0; j < in.M(); j++ {
			switch {
			case math.IsInf(in.CostMs[dev][j], 1):
				row[j] = math.Inf(-1)
			case costSeed:
				row[j] = -in.CostMs[dev][j]
			}
		}
		m.rowInit[t] = row
	}
	return m
}

// reset starts a new episode.
func (m *mdp) reset() {
	copy(m.residual, m.in.Capacity)
	m.hash = 0
	for j := range m.loads {
		m.loads[j] = 0
		m.lvl[j] = m.level(j)
		m.hash ^= zobrist(j, m.lvl[j])
	}
	m.step = 0
}

// done reports whether all devices are placed.
func (m *mdp) done() bool { return m.step >= len(m.order) }

// device returns the device placed at the current step.
func (m *mdp) device() int { return m.order[m.step] }

// level quantizes edge j's utilization: load/capacity clipped to [0, 1)
// into levels buckets; zero-capacity edges are always at the top level.
// A state compares levels as bytes, so levels wrap modulo 256.
func (m *mdp) level(j int) uint8 {
	level := m.levels - 1
	if m.in.Capacity[j] > 0 {
		u := m.loads[j] / m.in.Capacity[j]
		if u >= 1 {
			u = 1 - 1e-9
		}
		level = int(u * float64(m.levels))
	}
	return uint8(level)
}

// zobrist is the hash contribution of edge j at level l, and stepSalt
// that of the step: splitmix64's finalizer over disjoint inputs.
func zobrist(j int, l uint8) uint64 { return mix64(uint64(j)<<8 | uint64(l)) }
func stepSalt(t int) uint64         { return mix64(uint64(t) | 1<<63) }

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// key returns the 64-bit hash of the current state (step, lvl).
func (m *mdp) key() uint64 { return m.hash ^ stepSalt(m.step) }

// feasibleActions lists edges with remaining capacity for the current
// device. The returned slice is reused across calls.
func (m *mdp) feasibleActions(buf []int) []int {
	buf = buf[:0]
	i := m.device()
	w, c := m.in.Weight[i], m.in.CostMs[i]
	for j, r := range m.residual {
		// fits, with device i's rows hoisted out of the loop.
		if w[j] <= r+1e-12 && !math.IsInf(c[j], 1) {
			buf = append(buf, j)
		}
	}
	return buf
}

// take places the current device on edge j, returning the reward.
func (m *mdp) take(j int) float64 {
	i := m.device()
	m.residual[j] -= m.in.Weight[i][j]
	m.loads[j] += m.in.Weight[i][j]
	if l := m.level(j); l != m.lvl[j] {
		m.hash ^= zobrist(j, m.lvl[j]) ^ zobrist(j, l)
		m.lvl[j] = l
	}
	m.step++
	return -m.in.CostMs[i][j]
}

// bestQ returns the feasible action with maximal Q and its value.
func bestQ(row []float64, feasible []int) (int, float64) {
	best, bestV := feasible[0], math.Inf(-1)
	for _, a := range feasible {
		if row[a] > bestV {
			best, bestV = a, row[a]
		}
	}
	return best, bestV
}

// explorer is the epsilon-greedy behaviour policy: explore with
// probability eps, otherwise exploit the Q row. Exploration is
// cost-biased (softmax over the Q row rather than uniform) so exploratory
// episodes sample plausible alternative placements instead of arbitrary
// far-away edges — uniform exploration wastes most episodes on
// assignments no policy would choose. uniform selects uniform
// exploration for the F11 ablation.
type explorer struct {
	uniform bool
	weights []float64 // softmax scratch, reused across picks
}

func newExplorer(m int, uniform bool) *explorer {
	return &explorer{uniform: uniform, weights: make([]float64, m)}
}

// pick chooses a feasible action for Q row row.
func (x *explorer) pick(row []float64, feasible []int, eps float64, src *xrand.Source) int {
	if !src.Bernoulli(eps) {
		a, _ := bestQ(row, feasible)
		return a
	}
	return x.explore(row, feasible, src)
}

// explore draws the exploratory action of pick. A caller that already
// holds the row's bestQ action draws the coin itself and calls explore
// only when the coin says explore.
func (x *explorer) explore(row []float64, feasible []int, src *xrand.Source) int {
	if x.uniform {
		return feasible[src.Intn(len(feasible))]
	}
	// Softmax over Q values with a temperature tied to their spread.
	best := math.Inf(-1)
	worst := math.Inf(1)
	for _, a := range feasible {
		if row[a] > best {
			best = row[a]
		}
		if row[a] < worst {
			worst = row[a]
		}
	}
	temp := (best - worst) / 3
	if temp <= eps0Temp {
		return feasible[src.Intn(len(feasible))] // flat row: uniform
	}
	weights := x.weights[:len(feasible)]
	for k, a := range feasible {
		weights[k] = math.Exp((row[a] - best) / temp)
	}
	return feasible[src.Choice(weights)]
}

// eps0Temp guards against zero/negligible Q spread in softmax exploration.
const eps0Temp = 1e-12

// QLearning is the paper's primary heuristic: tabular Q-learning over the
// placement MDP with load-quantized states, feasibility-masked actions
// (overload is structurally impossible) and an epsilon-greedy schedule.
// The best feasible episode ever seen is returned, which makes the
// algorithm an anytime improver over its own greedy rollouts.
type QLearning struct {
	// Params tunes learning; zero fields take defaults.
	Params RLParams
	seed   int64

	// lastTrace records, per episode, the best total cost found so far;
	// read it with Trace after Assign for the convergence experiment.
	lastTrace []float64
	// progress, when non-nil, receives one IterEvent per episode — the
	// live counterpart of Trace. Strictly observational.
	progress obs.ProgressSink
}

// SetProgress implements ProgressReporter: sink receives one event per
// training episode of subsequent Assign calls.
func (q *QLearning) SetProgress(sink obs.ProgressSink) { q.progress = sink }

// NewQLearning returns a Q-learning assigner with default parameters.
func NewQLearning(seed int64) *QLearning { return &QLearning{seed: seed} }

// Name implements Assigner.
func (*QLearning) Name() string { return "qlearning" }

// Trace returns the per-episode best-cost-so-far curve of the last Assign
// call. The caller owns the slice.
func (q *QLearning) Trace() []float64 {
	out := make([]float64, len(q.lastTrace))
	copy(out, q.lastTrace)
	return out
}

// Assign implements Assigner.
func (q *QLearning) Assign(in *gap.Instance) (*gap.Assignment, error) {
	p := q.Params.withDefaults()
	src := xrand.NewSplit(q.seed, "qlearning")
	env := newMDPSeeded(in, p.LoadLevels, !p.NoCostSeeding)
	table := newQTable(env)
	policy := newExplorer(in.M(), p.UniformExploration)
	penalty := deadEndPenalty(in)
	actBuf, nextBuf := make([]int, 0, in.M()), make([]int, 0, in.M())
	buf, nextRowBuf := make([]float64, in.M()), make([]float64, in.M())

	bestOf := make([]int, in.N())
	bestCost := math.Inf(1)
	found := false
	of := make([]int, in.N())
	q.lastTrace = make([]float64, 0, p.Episodes)

	// Incumbent seeding: one pure-exploitation rollout (with cost-seeded
	// Q rows this reproduces min-delay greedy) plus the regret-greedy
	// constructive solution. The returned assignment can therefore never
	// be worse than either constructive baseline; the episodes below
	// only improve on the warm start.
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
		// The state acted on is carried from the previous step's
		// lookahead: its entry, Q row and feasible actions.
		actBuf = env.feasibleActions(actBuf)
		feasibleRun := len(actBuf) > 0
		var e int32
		var row []float64
		var greedy int // bestQ action of row
		if feasibleRun {
			e = table.internAt(env)
			row = table.row(e, env.step, buf)
			greedy, _ = bestQ(row, actBuf)
		}
		for feasibleRun {
			a := greedy
			if src.Bernoulli(eps) {
				a = policy.explore(row, actBuf, src)
			}
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
					// Next state is a dead end: large
					// penalty as the terminal value. Only
					// the last action is punished; the
					// policy learns to steer away from it.
					target = r - penalty
					feasibleRun = false
				} else {
					next = table.internAt(env)
					nextRow = table.row(next, env.step, nextRowBuf)
					var nv float64
					greedy, nv = bestQ(nextRow, nextBuf)
					target = r + p.Gamma*nv
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
		if found {
			q.lastTrace = append(q.lastTrace, bestCost)
		} else {
			q.lastTrace = append(q.lastTrace, math.Inf(1))
		}
		obs.EmitIter(q.progress, "qlearning", ep, bestCost, found)
		eps *= p.EpsilonDecay
		if eps < p.EpsilonMin {
			eps = p.EpsilonMin
		}
	}

	// Final pure-exploitation rollout over the learned table; keep it if
	// it beats the best training episode.
	if c, ok := greedyRollout(env, table, of); ok && c < bestCost {
		bestCost = c
		copy(bestOf, of)
		found = true
	}
	if !found {
		return nil, fmt.Errorf("assign/qlearning: no feasible episode in %d attempts: %w", p.Episodes, gap.ErrInfeasible)
	}
	return finish(in, bestOf, "qlearning")
}

// warmStart returns the regret-greedy constructive solution and its cost,
// or (0, nil) when that heuristic fails. RL assigners use it to prime
// their incumbent, the standard warm-start that makes episodic search an
// anytime improver over the best constructive baseline.
func warmStart(in *gap.Instance) (float64, []int) {
	rg, err := NewRegretGreedy().Assign(in)
	if err != nil {
		return 0, nil
	}
	return in.TotalCost(rg), rg.Of
}

// greedyRollout performs one epsilon=0 episode against the current table,
// writing the placement into of. It reports the episode cost and whether a
// complete feasible placement was reached. The table is only read.
func greedyRollout(env *mdp, table *qtable, of []int) (float64, bool) {
	env.reset()
	cost := 0.0
	buf := make([]int, 0, env.in.M())
	rowBuf := make([]float64, env.in.M())
	for !env.done() {
		buf = env.feasibleActions(buf)
		if len(buf) == 0 {
			return 0, false
		}
		row := table.row(table.stateAt(env), env.step, rowBuf)
		a, _ := bestQ(row, buf)
		i := env.device()
		cost -= env.take(a)
		of[i] = a
	}
	return cost, true
}

// deadEndPenalty scales the infeasibility punishment to the instance's
// cost magnitude so it dominates any delay difference.
func deadEndPenalty(in *gap.Instance) float64 {
	max := 0.0
	for i := 0; i < in.N(); i++ {
		for j := 0; j < in.M(); j++ {
			if c := in.CostMs[i][j]; !math.IsInf(c, 1) && c > max {
				max = c
			}
		}
	}
	return (max + 1) * float64(in.N())
}

// SARSA is the on-policy variant of the RL assigner: the TD target uses
// the action the behaviour policy actually takes next. Kept as an
// ablation/second heuristic; in the evaluation it tracks Q-learning
// closely.
type SARSA struct {
	// Params tunes learning; zero fields take defaults.
	Params RLParams
	seed   int64
}

// NewSARSA returns a SARSA assigner with default parameters.
func NewSARSA(seed int64) *SARSA { return &SARSA{seed: seed} }

// Name implements Assigner.
func (*SARSA) Name() string { return "sarsa" }

// Assign implements Assigner.
func (s *SARSA) Assign(in *gap.Instance) (*gap.Assignment, error) {
	p := s.Params.withDefaults()
	src := xrand.NewSplit(s.seed, "sarsa")
	env := newMDP(in, p.LoadLevels)
	table := newQTable(env)
	policy := newExplorer(in.M(), false)
	penalty := deadEndPenalty(in)
	actBuf := make([]int, 0, in.M())
	buf, nextRowBuf := make([]float64, in.M()), make([]float64, in.M())

	bestOf := make([]int, in.N())
	bestCost := math.Inf(1)
	found := false
	of := make([]int, in.N())

	// Same incumbent seeding as QLearning: start from the greedy-quality
	// exploitation rollout and the regret-greedy warm start so training
	// can only improve the result.
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
		feasibleRun := true

		actBuf = env.feasibleActions(actBuf)
		if len(actBuf) == 0 {
			return nil, fmt.Errorf("assign/sarsa: no feasible first action: %w", gap.ErrInfeasible)
		}
		e := table.internAt(env)
		row := table.row(e, env.step, buf)
		a := policy.pick(row, actBuf, eps, src)

		for {
			i := env.device()
			r := env.take(a)
			cost -= r
			of[i] = a

			if env.done() {
				table.update(e, a, row[a], p.Alpha, r)
				break
			}
			actBuf = env.feasibleActions(actBuf)
			if len(actBuf) == 0 {
				table.update(e, a, row[a], p.Alpha, r-penalty)
				feasibleRun = false
				break
			}
			next := table.internAt(env)
			nextRow := table.row(next, env.step, nextRowBuf)
			nextA := policy.pick(nextRow, actBuf, eps, src)
			target := r + p.Gamma*nextRow[nextA]
			table.update(e, a, row[a], p.Alpha, target)
			e, a, row = next, nextA, nextRow
			buf, nextRowBuf = nextRowBuf, buf
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
		return nil, fmt.Errorf("assign/sarsa: no feasible episode in %d attempts: %w", p.Episodes, gap.ErrInfeasible)
	}
	return finish(in, bestOf, "sarsa")
}
