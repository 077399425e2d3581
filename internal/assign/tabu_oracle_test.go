package assign

import (
	"fmt"
	"math"
	"testing"

	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/xrand"
)

// tabuReference is the classic full-scan tabu loop: every iteration walks
// each device's sorted candidate list from its first entry. TabuSearch
// must select exactly the same move on every iteration; the oracle test
// below holds it to that. aspirations counts the moves that were tabu but
// admitted because they set a new incumbent, so the test can check its
// instances really exercise that branch.
func tabuReference(in *gap.Instance, seed int64, iters, tenure int, sink obs.ProgressSink) (a *gap.Assignment, aspirations int, err error) {
	start, err := startFeasible(in, seed)
	if err != nil {
		return nil, 0, err
	}
	n, m := in.N(), in.M()
	if iters <= 0 {
		iters = 2000
	}
	if tenure <= 0 {
		tenure = n/4 + 3
	}
	ev := gap.NewEvaluator(in)
	ev.SetUndoTracking(false)
	ev.Reset(start.Of)
	bestOf := ev.Assignment(start.Of)
	bestCost := ev.Total()
	cands, candStart := moveCandidates(in)
	residual := ev.Residuals()
	of := ev.Placement()
	tabuUntil := make([]int, n*m)
	for it := 0; it < iters; it++ {
		bi, bj := -1, -1
		bestDelta := math.Inf(1)
		bestTabu := false
		cur := ev.Total()
		for i := 0; i < n; i++ {
			curJ := of[i]
			cRow, wRow := in.CostRow(i), in.WeightRow(i)
			curCost := cRow[curJ]
			tabuRow := tabuUntil[i*m : (i+1)*m]
			for _, j32 := range cands[candStart[i]:candStart[i+1]] {
				j := int(j32)
				if j == curJ {
					continue
				}
				delta := cRow[j] - curCost
				if delta >= bestDelta {
					break
				}
				if wRow[j] > residual[j]+1e-12 {
					continue
				}
				if it < tabuRow[j] && cur+delta >= bestCost-1e-12 {
					continue
				}
				bestDelta, bi, bj = delta, i, j
				bestTabu = it < tabuRow[j]
				break
			}
		}
		if bi < 0 {
			break
		}
		if bestTabu {
			aspirations++
		}
		from := of[bi]
		ev.Move(bi, bj)
		tabuUntil[bi*m+from] = it + tenure
		if ev.Total() < bestCost-1e-12 {
			bestCost = ev.Total()
			bestOf = ev.Assignment(bestOf)
		}
		obs.EmitIter(sink, "tabu", it, bestCost, true)
	}
	a, err = finish(in, bestOf, "tabu")
	return a, aspirations, err
}

// costStream records the best-cost value of every progress event.
type costStream []float64

func (s *costStream) OnIter(e obs.IterEvent) { *s = append(*s, e.BestCost) }

// oracleInstance draws a Synthetic instance and, per variant, rounds its
// costs to whole milliseconds (so delta ties are common and tie-breaking
// is exercised) or cuts some device-edge pairs (+Inf cost, which the
// candidate lists drop).
func oracleInstance(t *testing.T, n, m int, rho float64, seed int64, variant int) *gap.Instance {
	t.Helper()
	in, err := gap.Synthetic(gap.SyntheticUniform, n, m, rho, seed)
	if err != nil {
		t.Fatal(err)
	}
	if variant == 0 {
		return in
	}
	src := xrand.NewSplit(seed, "tabu-oracle")
	cost := make([][]float64, n)
	weight := make([][]float64, n)
	for i := 0; i < n; i++ {
		cost[i] = append([]float64(nil), in.CostRow(i)...)
		weight[i] = append([]float64(nil), in.WeightRow(i)...)
		for j := range cost[i] {
			switch {
			case variant == 1:
				cost[i][j] = math.Round(cost[i][j] / 4)
			case variant == 2 && j != i%m && src.Float64() < 0.15:
				cost[i][j] = math.Inf(1)
			}
		}
	}
	out, err := gap.NewInstance(cost, weight, in.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTabuMatchesFullScanReference is the exactness contract of tabu's
// incremental scan: on random instances it must produce the reference
// loop's placement and the same best-cost stream, iteration by
// iteration. The sweep crosses the 64-edge word boundaries of the
// blocked-edge masks, runs at tight capacity so most cheap edges are full,
// and uses Iters > Tenure so tabu entries expire and aspiration fires.
func TestTabuMatchesFullScanReference(t *testing.T) {
	ms := []int{3, 4, 7, 12, 31, 63, 64, 65, 97, 127, 128, 129, 130}
	src := xrand.New(20260)
	aspirations := 0
	for k, m := range ms {
		for variant := 0; variant < 3; variant++ {
			n := m + 10 + src.Intn(3*m+40)
			rho := 0.8 + 0.19*src.Float64()
			seed := int64(1000*k + variant)
			tenure := 2 + src.Intn(12)
			iters := tenure + 100 + src.Intn(300)
			if variant == 0 {
				tenure = 0 // the n/4+3 default
			}
			name := fmt.Sprintf("m%d/v%d/n%d/rho%.3f/tenure%d/iters%d", m, variant, n, rho, tenure, iters)
			t.Run(name, func(t *testing.T) {
				in := oracleInstance(t, n, m, rho, seed, variant)
				var want costStream
				ref, asp, refErr := tabuReference(in, seed, iters, tenure, &want)
				aspirations += asp

				ts := NewTabuSearch(seed)
				ts.Iters, ts.Tenure = iters, tenure
				var got costStream
				ts.SetProgress(&got)
				a, err := ts.Assign(in)
				if (err != nil) != (refErr != nil) {
					t.Fatalf("error mismatch: got %v, reference %v", err, refErr)
				}
				if err != nil {
					return
				}
				if h, w := hashOf(a.Of), hashOf(ref.Of); h != w {
					t.Fatalf("placement hash %s, reference %s", h, w)
				}
				if len(got) != len(want) {
					t.Fatalf("%d progress events, reference %d", len(got), len(want))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("iter %d: best cost %v, reference %v", i, got[i], want[i])
					}
				}
			})
		}
	}
	if aspirations == 0 {
		t.Fatal("no instance admitted a tabu move by aspiration; the sweep does not exercise that branch")
	}
}
