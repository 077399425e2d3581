package assign

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// goldenShapes are the instance families the golden determinism test
// sweeps: a comfortable uniform case, a correlated case, a larger tight
// one and a 300×70 one with most cheap edges full, each at three seeds.
var goldenShapes = []struct {
	kind gap.SyntheticKind
	n, m int
	rho  float64
}{
	{gap.SyntheticUniform, 30, 5, 0.8},
	{gap.SyntheticCorrelated, 25, 4, 0.85},
	{gap.SyntheticUniform, 60, 8, 0.9},
	{gap.SyntheticUniform, 300, 70, 0.95},
}

// goldenHashes pins the exact assignment every metaheuristic produces per
// (shape, seed), captured on the pre-Evaluator implementations. Hash is
// FNV-64a over the placement vector's entries as little-endian 4-byte
// words; "ERR" marks cells where the solver deterministically reports
// infeasibility. The 300×70 tabu cells were captured on the full-scan
// tabu loop, before the incremental candidate positions replaced it. Any
// diff here means a solver's per-seed arithmetic — not just its cost —
// changed, which is exactly what the incremental-kernel contract forbids.
var goldenHashes = []struct {
	shape int
	seed  int64
	algo  string
	hash  string
}{
	{0, 1, "local-search", "b8fececd02e190b0"},
	{0, 1, "sim-anneal", "5a94c0d4246676d4"},
	{0, 1, "tabu", "5a94c0d4246676d4"},
	{0, 1, "lns", "5a94c0d4246676d4"},
	{0, 1, "genetic", "5a94c0d4246676d4"},
	{0, 1, "lagrangian", "5a94c0d4246676d4"},
	{0, 2, "local-search", "dbf27d8438714ec7"},
	{0, 2, "sim-anneal", "b8ac6b3c5021ba46"},
	{0, 2, "tabu", "b8ac6b3c5021ba46"},
	{0, 2, "lns", "b8ac6b3c5021ba46"},
	{0, 2, "genetic", "b8ac6b3c5021ba46"},
	{0, 2, "lagrangian", "b8ac6b3c5021ba46"},
	{0, 3, "local-search", "da4416e23f19f8a2"},
	{0, 3, "sim-anneal", "da4416e23f19f8a2"},
	{0, 3, "tabu", "da4416e23f19f8a2"},
	{0, 3, "lns", "da4416e23f19f8a2"},
	{0, 3, "genetic", "da4416e23f19f8a2"},
	{0, 3, "lagrangian", "02d6e700c9493ca4"},
	{1, 1, "local-search", "67abaac9c8d89ae7"},
	{1, 1, "sim-anneal", "9ed837806a8c6cb7"},
	{1, 1, "tabu", "f31118b2c4818944"},
	{1, 1, "lns", "d7e151bbaa0355d5"},
	{1, 1, "genetic", "ea8d155a62d73744"},
	{1, 1, "lagrangian", "c87d28732abbe317"},
	{1, 2, "local-search", "c74705e50bd37be7"},
	{1, 2, "sim-anneal", "ee7063f55d406836"},
	{1, 2, "tabu", "69189c99d49f00e6"},
	{1, 2, "lns", "a7055cbb398c9404"},
	{1, 2, "genetic", "ac7b5178e31a8f06"},
	{1, 2, "lagrangian", "ERR"},
	{1, 3, "local-search", "cda832038f9e3906"},
	{1, 3, "sim-anneal", "ce2a363676a323e4"},
	{1, 3, "tabu", "25e9aa5597b2e477"},
	{1, 3, "lns", "910d908b78617915"},
	{1, 3, "genetic", "9df81dedd3f2c9f6"},
	{1, 3, "lagrangian", "ERR"},
	{2, 1, "local-search", "621c3cc4c902b391"},
	{2, 1, "sim-anneal", "c26ef5cd4389bcb3"},
	{2, 1, "tabu", "014197c1ee8f81f7"},
	{2, 1, "lns", "8bb17f2234f72261"},
	{2, 1, "genetic", "014197c1ee8f81f7"},
	{2, 1, "lagrangian", "8bb17f2234f72261"},
	{2, 2, "local-search", "7831ff3057cfc9d7"},
	{2, 2, "sim-anneal", "05205b3f45285466"},
	{2, 2, "tabu", "ff5154e46a6a2ae0"},
	{2, 2, "lns", "650669b07eb1e197"},
	{2, 2, "genetic", "650669b07eb1e197"},
	{2, 2, "lagrangian", "04b90673240a9a26"},
	{2, 3, "local-search", "72370d91a6435a30"},
	{2, 3, "sim-anneal", "8051e89f20524c15"},
	{2, 3, "tabu", "d41fb595853a38b1"},
	{2, 3, "lns", "055b1acac105bb42"},
	{2, 3, "genetic", "055b1acac105bb42"},
	{2, 3, "lagrangian", "8d56302634d80382"},
	{3, 1, "tabu", "4aaeebb52b42a441"},
	{3, 2, "tabu", "74c10dca2e3ee922"},
	{3, 3, "tabu", "37f2920ce83ba39e"},
}

// hashOf folds a placement vector with FNV-64a, each entry as a
// little-endian 4-byte word.
func hashOf(of []int) string {
	h := fnv.New64a()
	for _, j := range of {
		var b [4]byte
		b[0] = byte(j)
		b[1] = byte(j >> 8)
		b[2] = byte(j >> 16)
		b[3] = byte(j >> 24)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMetaheuristicsGoldenAssignments replays every (shape, seed, algo)
// cell and requires the produced assignment to hash to its pre-Evaluator
// golden value: the bit-identical-per-seed guarantee, enforced.
func TestMetaheuristicsGoldenAssignments(t *testing.T) {
	instances := make(map[[2]int64]*gap.Instance)
	for si, sh := range goldenShapes {
		for seed := int64(1); seed <= 3; seed++ {
			in, err := gap.Synthetic(sh.kind, sh.n, sh.m, sh.rho, seed)
			if err != nil {
				t.Fatalf("shape %d seed %d: %v", si, seed, err)
			}
			instances[[2]int64{int64(si), seed}] = in
		}
	}
	reg := NewRegistry()
	for _, g := range goldenHashes {
		g := g
		t.Run(fmt.Sprintf("shape%d/seed%d/%s", g.shape, g.seed, g.algo), func(t *testing.T) {
			in := instances[[2]int64{int64(g.shape), g.seed}]
			a, err := reg.New(g.algo, g.seed*100)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.Assign(in)
			if g.hash == "ERR" {
				if err == nil {
					t.Fatalf("expected deterministic error, got assignment %s", hashOf(got.Of))
				}
				return
			}
			if err != nil {
				t.Fatalf("Assign: %v", err)
			}
			if h := hashOf(got.Of); h != g.hash {
				t.Fatalf("assignment hash %s, golden %s — per-seed output changed", h, g.hash)
			}
		})
	}
}

// rlGoldenConfigs are the RL-family solver configurations the RL golden
// test pins. With the regret-greedy warm start on, the Q-learners often
// return the warm start itself, so the NoWarmStart cells and the
// qlearning Trace cells are what pin the Q-table arithmetic.
var rlGoldenConfigs = map[string]func(seed int64) Assigner{
	"regret-greedy":    func(int64) Assigner { return NewRegretGreedy() },
	"bandit":           func(s int64) Assigner { return NewBandit(s) },
	"sarsa":            func(s int64) Assigner { return NewSARSA(s) },
	"expected-sarsa":   func(s int64) Assigner { return NewExpectedSARSA(s) },
	"double-qlearning": func(s int64) Assigner { return NewDoubleQLearning(s) },
	"nstep-qlearning/n1": func(s int64) Assigner {
		nq := NewNStepQLearning(s)
		nq.N = 1
		return nq
	},
	"nstep-qlearning/n3": func(s int64) Assigner {
		nq := NewNStepQLearning(s)
		nq.N = 3
		return nq
	},
	"sarsa/nowarm": func(s int64) Assigner {
		a := NewSARSA(s)
		a.Params.NoWarmStart = true
		return a
	},
	"expected-sarsa/nowarm": func(s int64) Assigner {
		a := NewExpectedSARSA(s)
		a.Params.NoWarmStart = true
		return a
	},
	"double-qlearning/nowarm": func(s int64) Assigner {
		a := NewDoubleQLearning(s)
		a.Params.NoWarmStart = true
		return a
	},
	"nstep-qlearning/n1/nowarm": func(s int64) Assigner {
		nq := NewNStepQLearning(s)
		nq.N = 1
		nq.Params.NoWarmStart = true
		return nq
	},
	"nstep-qlearning/n3/nowarm": func(s int64) Assigner {
		nq := NewNStepQLearning(s)
		nq.N = 3
		nq.Params.NoWarmStart = true
		return nq
	},
	"qlearning":              qlearningWith(RLParams{}),
	"qlearning/nowarm":       qlearningWith(RLParams{NoWarmStart: true}),
	"qlearning/noseed":       qlearningWith(RLParams{NoWarmStart: true, NoCostSeeding: true}),
	"qlearning/uniform":      qlearningWith(RLParams{NoWarmStart: true, UniformExploration: true}),
	"qlearning/levels1":      qlearningWith(RLParams{LoadLevels: 1}),
	"qlearning/levels8":      qlearningWith(RLParams{LoadLevels: 8}),
	"qlearning/trace":        qlearningWith(RLParams{}),
	"qlearning/nowarm/trace": qlearningWith(RLParams{NoWarmStart: true}),
}

func qlearningWith(p RLParams) func(seed int64) Assigner {
	return func(s int64) Assigner {
		q := NewQLearning(s)
		q.Params = p
		return q
	}
}

// hashTrace folds a float64 curve with FNV-64a over each value's IEEE-754
// bits as a little-endian 8-byte word.
func hashTrace(curve []float64) string {
	h := fnv.New64a()
	for _, v := range curve {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// rlGoldenHash runs one RL golden cell: the placement hash, the Trace
// hash for "/trace" configs, or "ERR" when the solver reports
// infeasibility.
func rlGoldenHash(t *testing.T, algo string, in *gap.Instance, seed int64) string {
	t.Helper()
	mk, ok := rlGoldenConfigs[algo]
	if !ok {
		t.Fatalf("unknown RL golden config %q", algo)
	}
	a := mk(seed)
	got, err := a.Assign(in)
	if err != nil {
		if !errors.Is(err, gap.ErrInfeasible) {
			t.Fatalf("Assign: %v", err)
		}
		return "ERR"
	}
	if strings.HasSuffix(algo, "/trace") {
		return hashTrace(a.(*QLearning).Trace())
	}
	return hashOf(got.Of)
}

// TestRLGoldenAssignments is the RL counterpart of the metaheuristic
// golden test: every (shape, seed, config) cell must reproduce the
// placement (or Trace curve) captured before the RL engine was rebuilt
// around integer state keys and delta rows.
func TestRLGoldenAssignments(t *testing.T) {
	for _, g := range rlGoldenHashes {
		g := g
		t.Run(fmt.Sprintf("shape%d/seed%d/%s", g.shape, g.seed, g.algo), func(t *testing.T) {
			sh := goldenShapes[g.shape]
			in, err := gap.Synthetic(sh.kind, sh.n, sh.m, sh.rho, g.seed)
			if err != nil {
				t.Fatal(err)
			}
			if h := rlGoldenHash(t, g.algo, in, g.seed*100); h != g.hash {
				t.Fatalf("hash %s, golden %s — per-seed output changed", h, g.hash)
			}
		})
	}
}

// rlGoldenHashes pins every RL config of rlGoldenConfigs per (shape,
// seed), captured on the string-keyed map Q table that
// the delta-row table replaced. Hashes are hashOf over the placement,
// hashTrace over Trace() for "/trace" configs; "ERR" marks cells where
// the solver deterministically reports infeasibility.
var rlGoldenHashes = []struct {
	shape int
	seed  int64
	algo  string
	hash  string
}{
	{0, 1, "bandit", "ca8755168723d160"},
	{0, 1, "double-qlearning", "5a94c0d4246676d4"},
	{0, 1, "double-qlearning/nowarm", "e24f405b021ebce1"},
	{0, 1, "expected-sarsa", "5a94c0d4246676d4"},
	{0, 1, "expected-sarsa/nowarm", "510794fe5e9618c1"},
	{0, 1, "nstep-qlearning/n1", "5a94c0d4246676d4"},
	{0, 1, "nstep-qlearning/n1/nowarm", "510794fe5e9618c1"},
	{0, 1, "nstep-qlearning/n3", "5a94c0d4246676d4"},
	{0, 1, "nstep-qlearning/n3/nowarm", "510794fe5e9618c1"},
	{0, 1, "qlearning", "5a94c0d4246676d4"},
	{0, 1, "qlearning/levels1", "5a94c0d4246676d4"},
	{0, 1, "qlearning/levels8", "5a94c0d4246676d4"},
	{0, 1, "qlearning/noseed", "d128420948713d83"},
	{0, 1, "qlearning/nowarm", "510794fe5e9618c1"},
	{0, 1, "qlearning/nowarm/trace", "2d4af0c9603155c5"},
	{0, 1, "qlearning/trace", "0a0a96453b5a77e5"},
	{0, 1, "qlearning/uniform", "510794fe5e9618c1"},
	{0, 1, "regret-greedy", "5a94c0d4246676d4"},
	{0, 1, "sarsa", "5a94c0d4246676d4"},
	{0, 1, "sarsa/nowarm", "510794fe5e9618c1"},
	{0, 2, "bandit", "b8ac6b3c5021ba46"},
	{0, 2, "double-qlearning", "b8ac6b3c5021ba46"},
	{0, 2, "double-qlearning/nowarm", "dbf27d8438714ec7"},
	{0, 2, "expected-sarsa", "b8ac6b3c5021ba46"},
	{0, 2, "expected-sarsa/nowarm", "dbf27d8438714ec7"},
	{0, 2, "nstep-qlearning/n1", "b8ac6b3c5021ba46"},
	{0, 2, "nstep-qlearning/n1/nowarm", "dbf27d8438714ec7"},
	{0, 2, "nstep-qlearning/n3", "b8ac6b3c5021ba46"},
	{0, 2, "nstep-qlearning/n3/nowarm", "dbf27d8438714ec7"},
	{0, 2, "qlearning", "b8ac6b3c5021ba46"},
	{0, 2, "qlearning/levels1", "b8ac6b3c5021ba46"},
	{0, 2, "qlearning/levels8", "b8ac6b3c5021ba46"},
	{0, 2, "qlearning/noseed", "d5a551ad9e941655"},
	{0, 2, "qlearning/nowarm", "dbf27d8438714ec7"},
	{0, 2, "qlearning/nowarm/trace", "57ddab5d8e616c05"},
	{0, 2, "qlearning/trace", "d7f43125c8390d25"},
	{0, 2, "qlearning/uniform", "dbf27d8438714ec7"},
	{0, 2, "regret-greedy", "b8ac6b3c5021ba46"},
	{0, 2, "sarsa", "b8ac6b3c5021ba46"},
	{0, 2, "sarsa/nowarm", "dbf27d8438714ec7"},
	{0, 3, "bandit", "da4416e23f19f8a2"},
	{0, 3, "double-qlearning", "da4416e23f19f8a2"},
	{0, 3, "double-qlearning/nowarm", "da4416e23f19f8a2"},
	{0, 3, "expected-sarsa", "da4416e23f19f8a2"},
	{0, 3, "expected-sarsa/nowarm", "da4416e23f19f8a2"},
	{0, 3, "nstep-qlearning/n1", "da4416e23f19f8a2"},
	{0, 3, "nstep-qlearning/n1/nowarm", "da4416e23f19f8a2"},
	{0, 3, "nstep-qlearning/n3", "da4416e23f19f8a2"},
	{0, 3, "nstep-qlearning/n3/nowarm", "da4416e23f19f8a2"},
	{0, 3, "qlearning", "da4416e23f19f8a2"},
	{0, 3, "qlearning/levels1", "da4416e23f19f8a2"},
	{0, 3, "qlearning/levels8", "da4416e23f19f8a2"},
	{0, 3, "qlearning/noseed", "ca1512ddb9ec0a00"},
	{0, 3, "qlearning/nowarm", "da4416e23f19f8a2"},
	{0, 3, "qlearning/nowarm/trace", "e29a79473e0a8625"},
	{0, 3, "qlearning/trace", "e29a79473e0a8625"},
	{0, 3, "qlearning/uniform", "da4416e23f19f8a2"},
	{0, 3, "regret-greedy", "da4416e23f19f8a2"},
	{0, 3, "sarsa", "da4416e23f19f8a2"},
	{0, 3, "sarsa/nowarm", "da4416e23f19f8a2"},
	{1, 1, "bandit", "3bea5cb13c9ee5c5"},
	{1, 1, "double-qlearning", "a5a48165489f4595"},
	{1, 1, "double-qlearning/nowarm", "a5a48165489f4595"},
	{1, 1, "expected-sarsa", "ca4e7b5bdebab076"},
	{1, 1, "expected-sarsa/nowarm", "ca4e7b5bdebab076"},
	{1, 1, "nstep-qlearning/n1", "ec662544b11cc3a6"},
	{1, 1, "nstep-qlearning/n1/nowarm", "ec662544b11cc3a6"},
	{1, 1, "nstep-qlearning/n3", "790684ccd6fbe064"},
	{1, 1, "nstep-qlearning/n3/nowarm", "790684ccd6fbe064"},
	{1, 1, "qlearning", "e47016af67a97cf5"},
	{1, 1, "qlearning/levels1", "74f0abfb1850e5a4"},
	{1, 1, "qlearning/levels8", "fd9edbc4ef460f44"},
	{1, 1, "qlearning/noseed", "3d9627a8143fbf54"},
	{1, 1, "qlearning/nowarm", "e47016af67a97cf5"},
	{1, 1, "qlearning/nowarm/trace", "7519ccdca13ac0ff"},
	{1, 1, "qlearning/trace", "7519ccdca13ac0ff"},
	{1, 1, "qlearning/uniform", "2b82a078ccb079c5"},
	{1, 1, "regret-greedy", "ERR"},
	{1, 1, "sarsa", "73bda1fe4d1cef14"},
	{1, 1, "sarsa/nowarm", "73bda1fe4d1cef14"},
	{1, 2, "bandit", "e495f16dddbb1ab4"},
	{1, 2, "double-qlearning", "77c3b75de0f035f6"},
	{1, 2, "double-qlearning/nowarm", "77c3b75de0f035f6"},
	{1, 2, "expected-sarsa", "7eb992526183ea27"},
	{1, 2, "expected-sarsa/nowarm", "7eb992526183ea27"},
	{1, 2, "nstep-qlearning/n1", "c25735803ca60537"},
	{1, 2, "nstep-qlearning/n1/nowarm", "c25735803ca60537"},
	{1, 2, "nstep-qlearning/n3", "2b6fdc4cf0cf5e37"},
	{1, 2, "nstep-qlearning/n3/nowarm", "2b6fdc4cf0cf5e37"},
	{1, 2, "qlearning", "dc311e3b66623167"},
	{1, 2, "qlearning/levels1", "20499d82b7be1986"},
	{1, 2, "qlearning/levels8", "51304cff8ed48415"},
	{1, 2, "qlearning/noseed", "5adcc167a548ae07"},
	{1, 2, "qlearning/nowarm", "dc311e3b66623167"},
	{1, 2, "qlearning/nowarm/trace", "f65df7e4848f7977"},
	{1, 2, "qlearning/trace", "f65df7e4848f7977"},
	{1, 2, "qlearning/uniform", "93eb5637cf1c9607"},
	{1, 2, "regret-greedy", "ERR"},
	{1, 2, "sarsa", "610bbe8b18152ce6"},
	{1, 2, "sarsa/nowarm", "610bbe8b18152ce6"},
	{1, 3, "bandit", "13053e1ae16abc85"},
	{1, 3, "double-qlearning", "2aba2446b50c8a27"},
	{1, 3, "double-qlearning/nowarm", "2aba2446b50c8a27"},
	{1, 3, "expected-sarsa", "a71ed79f7eb85514"},
	{1, 3, "expected-sarsa/nowarm", "a71ed79f7eb85514"},
	{1, 3, "nstep-qlearning/n1", "9cf5e10753b23d86"},
	{1, 3, "nstep-qlearning/n1/nowarm", "9cf5e10753b23d86"},
	{1, 3, "nstep-qlearning/n3", "a644113617036fb6"},
	{1, 3, "nstep-qlearning/n3/nowarm", "a644113617036fb6"},
	{1, 3, "qlearning", "6c1bb83a87de0e34"},
	{1, 3, "qlearning/levels1", "48f6351e0944e947"},
	{1, 3, "qlearning/levels8", "8a8f050d63139c96"},
	{1, 3, "qlearning/noseed", "c92920ed32dbafe7"},
	{1, 3, "qlearning/nowarm", "6c1bb83a87de0e34"},
	{1, 3, "qlearning/nowarm/trace", "fb3429032e9e9b99"},
	{1, 3, "qlearning/trace", "fb3429032e9e9b99"},
	{1, 3, "qlearning/uniform", "df93722244ed5115"},
	{1, 3, "regret-greedy", "ERR"},
	{1, 3, "sarsa", "3d17f271c1377da6"},
	{1, 3, "sarsa/nowarm", "3d17f271c1377da6"},
	{2, 1, "bandit", "51a9a1f90a630867"},
	{2, 1, "double-qlearning", "014197c1ee8f81f7"},
	{2, 1, "double-qlearning/nowarm", "26bd3fdda7ba3e86"},
	{2, 1, "expected-sarsa", "014197c1ee8f81f7"},
	{2, 1, "expected-sarsa/nowarm", "26bd3fdda7ba3e86"},
	{2, 1, "nstep-qlearning/n1", "014197c1ee8f81f7"},
	{2, 1, "nstep-qlearning/n1/nowarm", "26bd3fdda7ba3e86"},
	{2, 1, "nstep-qlearning/n3", "014197c1ee8f81f7"},
	{2, 1, "nstep-qlearning/n3/nowarm", "26bd3fdda7ba3e86"},
	{2, 1, "qlearning", "014197c1ee8f81f7"},
	{2, 1, "qlearning/levels1", "014197c1ee8f81f7"},
	{2, 1, "qlearning/levels8", "014197c1ee8f81f7"},
	{2, 1, "qlearning/noseed", "c271d023286133b2"},
	{2, 1, "qlearning/nowarm", "26bd3fdda7ba3e86"},
	{2, 1, "qlearning/nowarm/trace", "a25208f7c3dcc805"},
	{2, 1, "qlearning/trace", "8fdeb4471f7783c5"},
	{2, 1, "qlearning/uniform", "26bd3fdda7ba3e86"},
	{2, 1, "regret-greedy", "014197c1ee8f81f7"},
	{2, 1, "sarsa", "014197c1ee8f81f7"},
	{2, 1, "sarsa/nowarm", "26bd3fdda7ba3e86"},
	{2, 2, "bandit", "e6cb99d4aed5cb76"},
	{2, 2, "double-qlearning", "650669b07eb1e197"},
	{2, 2, "double-qlearning/nowarm", "ee099c515ce1f231"},
	{2, 2, "expected-sarsa", "650669b07eb1e197"},
	{2, 2, "expected-sarsa/nowarm", "ee099c515ce1f231"},
	{2, 2, "nstep-qlearning/n1", "650669b07eb1e197"},
	{2, 2, "nstep-qlearning/n1/nowarm", "ee099c515ce1f231"},
	{2, 2, "nstep-qlearning/n3", "650669b07eb1e197"},
	{2, 2, "nstep-qlearning/n3/nowarm", "ee099c515ce1f231"},
	{2, 2, "qlearning", "650669b07eb1e197"},
	{2, 2, "qlearning/levels1", "650669b07eb1e197"},
	{2, 2, "qlearning/levels8", "650669b07eb1e197"},
	{2, 2, "qlearning/noseed", "22ee020d6532f7d0"},
	{2, 2, "qlearning/nowarm", "ee099c515ce1f231"},
	{2, 2, "qlearning/nowarm/trace", "089dcfca14558f85"},
	{2, 2, "qlearning/trace", "6ba8abecc00cd5e5"},
	{2, 2, "qlearning/uniform", "ee099c515ce1f231"},
	{2, 2, "regret-greedy", "650669b07eb1e197"},
	{2, 2, "sarsa", "650669b07eb1e197"},
	{2, 2, "sarsa/nowarm", "ee099c515ce1f231"},
	{2, 3, "bandit", "171b679dcbb75d27"},
	{2, 3, "double-qlearning", "055b1acac105bb42"},
	{2, 3, "double-qlearning/nowarm", "55d738b607eecbd1"},
	{2, 3, "expected-sarsa", "055b1acac105bb42"},
	{2, 3, "expected-sarsa/nowarm", "55d738b607eecbd1"},
	{2, 3, "nstep-qlearning/n1", "055b1acac105bb42"},
	{2, 3, "nstep-qlearning/n1/nowarm", "55d738b607eecbd1"},
	{2, 3, "nstep-qlearning/n3", "055b1acac105bb42"},
	{2, 3, "nstep-qlearning/n3/nowarm", "55d738b607eecbd1"},
	{2, 3, "qlearning", "055b1acac105bb42"},
	{2, 3, "qlearning/levels1", "055b1acac105bb42"},
	{2, 3, "qlearning/levels8", "055b1acac105bb42"},
	{2, 3, "qlearning/noseed", "5486609ed9b59440"},
	{2, 3, "qlearning/nowarm", "55d738b607eecbd1"},
	{2, 3, "qlearning/nowarm/trace", "d3eade2541c67505"},
	{2, 3, "qlearning/trace", "f4fade6cb6127325"},
	{2, 3, "qlearning/uniform", "55d738b607eecbd1"},
	{2, 3, "regret-greedy", "055b1acac105bb42"},
	{2, 3, "sarsa", "055b1acac105bb42"},
	{2, 3, "sarsa/nowarm", "55d738b607eecbd1"},
}

// randomSmallInstance draws an n×m instance with n <= 7, m <= 4: costs in
// [1, 20) with about one unreachable (+Inf) pair in ten, per-device
// weights in [1, 5) and capacities between 0.8 and 2.2 times the mean
// per-edge load, so roughly a third of the draws are
// capacity-infeasible.
func randomSmallInstance(t *testing.T, src *xrand.Source) *gap.Instance {
	t.Helper()
	n, m := 1+src.Intn(7), 1+src.Intn(4)
	cost := make([][]float64, n)
	weight := make([][]float64, n)
	total := 0.0
	for i := range cost {
		cost[i] = make([]float64, m)
		weight[i] = make([]float64, m)
		w := src.Uniform(1, 5)
		total += w
		for j := range cost[i] {
			cost[i][j] = src.Uniform(1, 20)
			if src.Bernoulli(0.1) {
				cost[i][j] = math.Inf(1)
			}
			weight[i][j] = w
		}
	}
	capacity := make([]float64, m)
	for j := range capacity {
		capacity[j] = total / float64(m) * src.Uniform(0.8, 2.2)
	}
	in, err := gap.NewInstance(cost, weight, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestRLSolverContractVsBruteForce checks the solver contract of every
// RL config and regret-greedy against the exact optimum: a feasible
// assignment costing no less than gap.BruteForce's optimum, or an error
// wrapping gap.ErrInfeasible (always, when BruteForce proves the
// instance infeasible).
func TestRLSolverContractVsBruteForce(t *testing.T) {
	src := xrand.New(20260)
	infeasible := 0
	for k := 0; k < 60; k++ {
		in := randomSmallInstance(t, src)
		opt, err := gap.BruteForce(in)
		if err != nil && !errors.Is(err, gap.ErrInfeasible) {
			t.Fatalf("instance %d: BruteForce: %v", k, err)
		}
		if opt == nil {
			infeasible++
		}
		for algo, mk := range rlGoldenConfigs {
			got, err := mk(int64(k)).Assign(in)
			switch {
			case err != nil:
				if !errors.Is(err, gap.ErrInfeasible) {
					t.Fatalf("instance %d %s: error %v does not wrap gap.ErrInfeasible", k, algo, err)
				}
			case opt == nil:
				t.Fatalf("instance %d %s: assignment %v on an infeasible instance", k, algo, got.Of)
			case !in.Feasible(got):
				t.Fatalf("instance %d %s: overloaded assignment %v", k, algo, got.Of)
			case in.TotalCost(got) < in.TotalCost(opt)-1e-9:
				t.Fatalf("instance %d %s: cost %v below the optimum %v", k, algo, in.TotalCost(got), in.TotalCost(opt))
			}
		}
	}
	if infeasible == 0 || infeasible == 60 {
		t.Fatalf("%d of 60 instances infeasible; the draw must cover both cases", infeasible)
	}
}
