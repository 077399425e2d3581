package assign

import (
	"fmt"
	"math"
	"sort"

	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/xrand"
)

// TabuSearch escapes the local optima that plain hill climbing stalls in:
// every iteration applies the best feasible shift move even if it worsens
// the objective, while a tabu list forbids undoing recent moves; an
// aspiration criterion overrides the list when a move would produce a new
// incumbent.
//
// Move evaluation runs on the gap.Evaluator delta kernel: per-device
// candidate edges are pre-sorted by delay once, so the best-admissible
// scan walks each device's candidates in ascending delta and stops at the
// first admissible one (and abandons the device as soon as its deltas
// can no longer beat the global best) instead of re-pricing all n×m
// moves. A tabuScan index lets each device's walk start at its first
// candidate that fits and skips devices whose first fitting delta cannot
// beat the best, so candidates on full edges are not re-read every
// iteration. The selected move is identical to the full scan's —
// including tie-breaking — so results are bit-identical to the classic
// implementation; only the work per iteration shrinks. The candidate
// lists and the index are built inside the "construction" phase.
type TabuSearch struct {
	// Iters is the number of moves (default 2000).
	Iters int
	// Tenure is how many iterations a reversed move stays forbidden
	// (default n/4+3, set when 0).
	Tenure   int
	seed     int64
	progress obs.ProgressSink
	phases   *obs.Phase
}

// SetProgress implements ProgressReporter: sink receives one event per
// tabu move of subsequent Assign calls.
func (ts *TabuSearch) SetProgress(sink obs.ProgressSink) { ts.progress = sink }

// SetPhases implements PhasedSolver: subsequent Assign calls emit
// "construction" and "improvement" spans under parent.
func (ts *TabuSearch) SetPhases(parent *obs.Phase) { ts.phases = parent }

// NewTabuSearch returns a tabu-search assigner.
func NewTabuSearch(seed int64) *TabuSearch { return &TabuSearch{seed: seed} }

// Name implements Assigner.
func (*TabuSearch) Name() string { return "tabu" }

// moveCandidates builds, for every device, its reachable (finite-delay)
// edges sorted by ascending delay with index-ascending tie order — the
// order in which shift deltas ascend. Stored flat: device i's candidates
// are cands[start[i]:start[i+1]].
func moveCandidates(in *gap.Instance) (cands []int32, start []int32) {
	n, m := in.N(), in.M()
	cands = make([]int32, 0, n*m)
	start = make([]int32, n+1)
	for i := 0; i < n; i++ {
		start[i] = int32(len(cands))
		row := in.CostRow(i)
		for j := 0; j < m; j++ {
			if !math.IsInf(row[j], 1) {
				cands = append(cands, int32(j))
			}
		}
		ci := cands[start[i]:]
		sort.Slice(ci, func(a, b int) bool {
			ja, jb := ci[a], ci[b]
			if row[ja] != row[jb] {
				return row[ja] < row[jb]
			}
			return ja < jb
		})
	}
	start[n] = int32(len(cands))
	return cands, start
}

// tabuScan is tabu's incremental move index: for every device it keeps
// where the best-admissible scan can start, which the full scan would
// rediscover each iteration by re-reading candidates on full edges.
// Every candidate of device i before at[i].k is of[i] or full, so the
// scan may start at at[i].k; DESIGN.md "Tabu's incremental candidate
// positions" shows why the move it selects is the full scan's.
type tabuScan struct {
	in    *gap.Instance
	cands []int32
	start []int32
	at    []scanPos
	// blocked holds ⌈m/64⌉ bitmask words per device: the edges device i
	// skipped as full before at[i].k.
	blocked []uint64
	words   int
}

// scanPos is one device's scan start: the index k into cands of its
// first candidate that is not of[i] and passes the fit test
// !(w > residual+1e-12), that candidate's edge, and its shift delta. At
// the end of the list edge is -1 and delta +Inf.
type scanPos struct {
	delta float64
	k     int32
	edge  int32
}

// newTabuScan builds the candidate lists and positions for placement of.
func newTabuScan(in *gap.Instance, of []int, residual []float64) tabuScan {
	n := in.N()
	s := tabuScan{in: in, words: (in.M() + 63) / 64}
	s.cands, s.start = moveCandidates(in)
	s.at = make([]scanPos, n)
	s.blocked = make([]uint64, n*s.words)
	for i := 0; i < n; i++ {
		s.seek(i, s.start[i], of[i], residual)
	}
	return s
}

// seek advances device i's position from candidate index k to the first
// candidate that is not curJ and fits, marking the full ones it passes.
func (s *tabuScan) seek(i int, k int32, curJ int, residual []float64) {
	cRow, wRow := s.in.CostRow(i), s.in.WeightRow(i)
	mask := s.blocked[i*s.words : (i+1)*s.words]
	end := s.start[i+1]
	for ; k < end; k++ {
		j := s.cands[k]
		if int(j) == curJ {
			continue
		}
		if wRow[j] > residual[j]+1e-12 {
			mask[j>>6] |= 1 << (j & 63)
			continue
		}
		s.at[i] = scanPos{delta: cRow[j] - cRow[curJ], k: k, edge: j}
		return
	}
	s.at[i] = scanPos{delta: math.Inf(1), k: end, edge: -1}
}

// reset recomputes device i's position and mask from its first candidate.
func (s *tabuScan) reset(i, curJ int, residual []float64) {
	clear(s.blocked[i*s.words : (i+1)*s.words])
	s.seek(i, s.start[i], curJ, residual)
}

// moved restores the invariants after device bi shifted from edge from to
// edge to: from's residual grew, so a device that skipped from as full
// rescans once from fits it; to's residual shrank, so a device positioned
// on to moves past it once it no longer fits; bi itself rescans.
func (s *tabuScan) moved(bi, from, to int, of []int, residual []float64) {
	fromWord, fromBit := from>>6, uint64(1)<<(from&63)
	for i, p := range s.at {
		if s.blocked[i*s.words+fromWord]&fromBit != 0 && !(s.in.WeightAt(i, from) > residual[from]+1e-12) {
			s.reset(i, of[i], residual)
		} else if int(p.edge) == to && s.in.WeightAt(i, to) > residual[to]+1e-12 {
			s.seek(i, p.k, of[i], residual)
		}
	}
	s.reset(bi, to, residual)
}

// Assign implements Assigner.
func (ts *TabuSearch) Assign(in *gap.Instance) (*gap.Assignment, error) {
	consPh := ts.phases.Child("construction")
	start, err := startFeasible(in, ts.seed)
	if err != nil {
		consPh.End()
		return nil, fmt.Errorf("assign/tabu: %w", err)
	}
	n, m := in.N(), in.M()
	iters := ts.Iters
	if iters <= 0 {
		iters = 2000
	}
	tenure := ts.Tenure
	if tenure <= 0 {
		tenure = n/4 + 3
	}

	ev := gap.NewEvaluator(in)
	ev.SetUndoTracking(false)
	ev.Reset(start.Of)
	bestOf := ev.Assignment(start.Of)
	bestCost := ev.Total()
	residual := ev.Residuals()
	of := ev.Placement()
	sc := newTabuScan(in, of, residual)
	cands, candStart := sc.cands, sc.start

	// tabuUntil[i*m+j] bans placing device i on edge j until that
	// iteration index. Entries saturate at MaxInt32, which bans for the
	// whole run as long as iters <= MaxInt32.
	tabuUntil := make([]int32, n*m)
	consPh.End()

	impPh := ts.phases.Child("improvement")
	defer impPh.End()
	impPh.SetAttr("iters", iters)
	for it := 0; it < iters; it++ {
		// Best admissible shift move across the whole neighborhood.
		bi, bj := -1, -1
		bestDelta := math.Inf(1)
		cur := ev.Total()
		for i := 0; i < n; i++ {
			if sc.at[i].delta >= bestDelta {
				// The walk would break on i's first candidate that fits.
				continue
			}
			curJ := of[i]
			cRow, wRow := in.CostRow(i), in.WeightRow(i)
			curCost := cRow[curJ]
			tabuRow := tabuUntil[i*m : (i+1)*m]
			for _, j32 := range cands[sc.at[i].k:candStart[i+1]] {
				j := int(j32)
				if j == curJ {
					continue
				}
				delta := cRow[j] - curCost
				if delta >= bestDelta {
					// Candidates ascend in delta: nothing further for
					// this device can strictly beat the incumbent move.
					break
				}
				if wRow[j] > residual[j]+1e-12 {
					continue // does not fit
				}
				if it < int(tabuRow[j]) && cur+delta >= bestCost-1e-12 {
					continue // tabu and not aspirational
				}
				bestDelta, bi, bj = delta, i, j
				break // later candidates have delta >= bestDelta
			}
		}
		if bi < 0 {
			break // no admissible move
		}
		from := of[bi]
		ev.Move(bi, bj)
		sc.moved(bi, from, bj, of, residual)
		// Forbid moving the device straight back.
		tabuUntil[bi*m+from] = int32(min(it+tenure, math.MaxInt32))
		if ev.Total() < bestCost-1e-12 {
			bestCost = ev.Total()
			bestOf = ev.Assignment(bestOf)
		}
		obs.EmitIter(ts.progress, "tabu", it, bestCost, true)
	}
	return finish(in, bestOf, "tabu")
}

// LNS is a large-neighborhood search: repeatedly destroy a random fraction
// of the assignment (remove those devices) and repair it with regret-based
// reinsertion, accepting improvements. Destroy-and-repair escapes local
// structure that single-device moves cannot.
type LNS struct {
	// Iters is the number of destroy/repair rounds (default 60).
	Iters int
	// DestroyFrac is the fraction of devices removed each round
	// (default 0.25).
	DestroyFrac float64
	seed        int64
	progress    obs.ProgressSink
	phases      *obs.Phase
}

// SetProgress implements ProgressReporter: sink receives one event per
// destroy/repair round of subsequent Assign calls.
func (l *LNS) SetProgress(sink obs.ProgressSink) { l.progress = sink }

// SetPhases implements PhasedSolver: subsequent Assign calls emit
// "construction" and "improvement" spans under parent, with one "repair"
// child span per reinsertion round.
func (l *LNS) SetPhases(parent *obs.Phase) { l.phases = parent }

// NewLNS returns a large-neighborhood-search assigner.
func NewLNS(seed int64) *LNS { return &LNS{seed: seed} }

// Name implements Assigner.
func (*LNS) Name() string { return "lns" }

// Assign implements Assigner.
func (l *LNS) Assign(in *gap.Instance) (*gap.Assignment, error) {
	consPh := l.phases.Child("construction")
	start, err := startFeasible(in, l.seed)
	consPh.End()
	if err != nil {
		return nil, fmt.Errorf("assign/lns: %w", err)
	}
	src := xrand.NewSplit(l.seed, "lns")
	n := in.N()
	iters := l.Iters
	if iters <= 0 {
		iters = 60
	}
	frac := l.DestroyFrac
	if frac <= 0 || frac >= 1 {
		frac = 0.25
	}
	k := int(float64(n)*frac) + 1

	bestOf := make([]int, n)
	copy(bestOf, start.Of)
	bestCost := in.TotalCost(start)

	// One evaluator and one permutation buffer serve every round: the
	// destroy/repair loop allocates nothing in steady state.
	ev := gap.NewEvaluator(in)
	ev.SetUndoTracking(false)
	var rein reinserter
	perm := make([]int, n)
	impPh := l.phases.Child("improvement")
	defer impPh.End()
	impPh.SetAttr("iters", iters)
	for it := 0; it < iters; it++ {
		ev.Reset(bestOf)
		// Destroy: remove k random devices.
		src.PermInto(perm)
		removed := perm[:k]
		for _, i := range removed {
			ev.Unassign(i)
		}
		// Repair: regret-based reinsertion over the removed set.
		repairStart := impPh.NowMs()
		repaired := rein.reinsert(ev, removed)
		impPh.Span("repair", repairStart, impPh.NowMs(), nil)
		if repaired {
			// Acceptance compares the canonical device-order re-sum, not
			// the incrementally drifted total, so decisions land exactly
			// where the classic full TotalCost re-cost put them.
			if c := ev.RecomputeTotal(); c < bestCost-1e-12 {
				bestCost = c
				bestOf = ev.Assignment(bestOf)
			}
		}
		obs.EmitIter(l.progress, "lns", it, bestCost, true)
	}
	return finish(in, bestOf, "lns")
}

// reinserter holds the pending-device buffer regret reinsertion reuses
// across rounds.
type reinserter struct {
	pending []int
}

// reinsert places the removed devices back through ev (largest regret
// first); reports success. Pending devices are scanned in removal order —
// never a map — so regret ties break the same way on every run and LNS
// stays deterministic for a fixed seed.
func (rs *reinserter) reinsert(ev *gap.Evaluator, removed []int) bool {
	in := ev.Instance()
	m := in.M()
	residual := ev.Residuals()
	pending := append(rs.pending[:0], removed...)
	rs.pending = pending
	for len(pending) > 0 {
		bestDev, bestEdge := -1, -1
		bestAt := -1
		bestRegret := math.Inf(-1)
		for at, i := range pending {
			first, second, firstJ := math.Inf(1), math.Inf(1), -1
			cRow, wRow := in.CostRow(i), in.WeightRow(i)
			for j := 0; j < m; j++ {
				if wRow[j] > residual[j]+1e-12 || math.IsInf(cRow[j], 1) {
					continue // does not fit
				}
				c := cRow[j]
				switch {
				case c < first:
					second, first, firstJ = first, c, j
				case c < second:
					second = c
				}
			}
			if firstJ < 0 {
				return false
			}
			regret := second - first
			if math.IsInf(second, 1) {
				regret = math.Inf(1)
			}
			if regret > bestRegret {
				bestRegret, bestDev, bestEdge, bestAt = regret, i, firstJ, at
			}
		}
		ev.Place(bestDev, bestEdge)
		pending = append(pending[:bestAt], pending[bestAt+1:]...)
	}
	return true
}
