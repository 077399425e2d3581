package main

import (
	"fmt"
	"runtime"
	"strings"

	"taccc/internal/assign"
	"taccc/internal/cluster"
	"taccc/internal/experiment"
	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/obs/slo"
	"taccc/internal/topology"
	"taccc/internal/workload"
	"taccc/internal/xrand"
)

// spec is one workload: the deployment size, the capacity tightness and
// the solver, plus the simulation for sim-archive.
type spec struct {
	name      string
	iot, edge int
	rho       float64
	algo      string
	// sim makes the op a simulation of the set-up's placement instead of
	// a plan; its uplink delays are payload-aware, as in tacsim.
	sim bool
	// deployments is how many independent deployments one run draws
	// from its seed. Op time and peak heap depend on the instance (RL
	// episodes end early at different dead ends, simulations carry
	// different request counts), so a run averages over several to keep
	// its figures steady from seed to seed.
	deployments int
}

var specs = []spec{
	{name: "plan-large", iot: 10000, edge: 250, rho: 0.85, algo: "tabu", deployments: 3},
	{name: "rl-plan", iot: 2000, edge: 50, rho: 0.95, algo: "qlearning", deployments: 4},
	{name: "sim-archive", iot: 2000, edge: 50, rho: 0.85, algo: "greedy", sim: true, deployments: 2},
}

// deploymentSeed derives deployment k's seed from the run's seed. The
// deployment is the one tacsolve and tacsim build from that seed.
func deploymentSeed(seed int64, k int) int64 {
	return xrand.SplitSeed(seed, fmt.Sprintf("deployment-%d", k))
}

// The sim-archive op mirrors `tacsim -archive -slo 'p95<=20@90,miss<=0.05'`
// with its defaults: 4 KB payloads, 70% service headroom, FIFO, 1 s SLO
// windows, every request traced.
const (
	simPayloadKB  = 4
	simHeadroom   = 0.7
	simWarmupMs   = 2000
	simDurationMs = 22000
	sloSpec       = "p95<=20@90,miss<=0.05"
	sloWindowMs   = 1000
)

func lookup(name string) (spec, bool) {
	for _, w := range specs {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, w := range specs {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// bench holds one workload's generated inputs and the reference outputs
// every measured op is checked against.
type bench struct {
	w       spec
	seed    int64
	workers int

	graph    *topology.Graph
	devices  []workload.Device
	capacity []float64

	// meanDelayMs is the paper's objective for the placement: the plan
	// op's result, or the set-up's placement for sim-archive.
	// p50DelayMs is the median over devices of the assigned delay.
	meanDelayMs, p50DelayMs float64
	// ref is the reference assignment: the first op's for the plan
	// workloads, the set-up's placement for sim-archive.
	ref []int

	// sim-archive only: the set-up's placement, the matrices the
	// simulator replays, and the first op's outputs.
	placement     []int
	setupInstance *gap.Instance
	uplink        *topology.DelayMatrix
	downlink      *topology.DelayMatrix
	simRef        *simOutcome
}

// newBench generates the workload's inputs from seed: the topology, the
// device population and the edge capacities, derived exactly as
// experiment.Scenario.Build derives them, so tacsolve and tacsim build
// the same deployment from the same seed. For sim-archive the set-up also
// plans the placement and builds both delay matrices.
func newBench(w spec, seed int64, rec *recorder) (*bench, error) {
	b := &bench{w: w, seed: seed, workers: runtime.GOMAXPROCS(0)}
	cfg := topology.Config{
		NumIoT:      w.iot,
		NumEdge:     w.edge,
		NumGateways: 2 * w.edge,
		NumRouters:  w.edge,
		Seed:        xrand.SplitSeed(seed, "topology"),
	}
	if _, err := rec.call("topology.generate", func() (err error) {
		b.graph, err = topology.Generate(topology.FamilyHierarchical, cfg, topology.PlaceUniform)
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := rec.call("workload.generate", func() (err error) {
		b.devices, err = workload.Generate(w.iot, workload.DefaultProfile(xrand.SplitSeed(seed, "workload")))
		return err
	}); err != nil {
		return nil, err
	}
	capacity, err := experiment.Capacities(w.edge, b.devices, w.rho)
	if err != nil {
		return nil, err
	}
	b.capacity = capacity
	if !w.sim {
		return b, nil
	}

	rec.call("topology.delay_matrix", func() error {
		b.uplink = topology.NewDelayMatrixWorkers(b.graph, topology.PayloadCost(simPayloadKB), b.workers)
		return nil
	})
	in, got, err := b.solve(b.uplink, rec)
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	b.placement, b.setupInstance = got.Of, in
	rec.call("topology.delay_matrix", func() error {
		b.downlink = topology.NewDelayMatrixWorkers(b.graph, topology.LatencyCost, b.workers)
		return nil
	})
	return b, nil
}

// checkSetup checks the set-up's placement, outside the set-up's timing,
// and keeps it as the reference; only sim-archive plans in set-up.
func (b *bench) checkSetup() error {
	if b.setupInstance == nil {
		return nil
	}
	err := b.check(b.uplink, b.setupInstance, b.placement)
	b.setupInstance = nil
	if err != nil {
		return fmt.Errorf("placement: %w", err)
	}
	return nil
}

// sameInputs reports an error when another set-up from the same seed
// produced different inputs.
func (b *bench) sameInputs(o *bench) error {
	if b.graph.NumNodes() != o.graph.NumNodes() || b.graph.NumLinks() != o.graph.NumLinks() {
		return fmt.Errorf("set-up is not deterministic: topology differs between set-ups")
	}
	for i := range b.devices {
		if b.devices[i] != o.devices[i] {
			return fmt.Errorf("set-up is not deterministic: device %d differs between set-ups", i)
		}
	}
	for i := range b.placement {
		if b.placement[i] != o.placement[i] {
			return fmt.Errorf("set-up is not deterministic: placement of device %d differs between set-ups", i)
		}
	}
	return nil
}

// solve binds dm into a GAP instance and solves it.
func (b *bench) solve(dm *topology.DelayMatrix, rec *recorder) (*gap.Instance, *gap.Assignment, error) {
	var in *gap.Instance
	if _, err := rec.call("gap.instance", func() (err error) {
		in, err = gap.FromTopology(dm, b.devices, b.capacity)
		return err
	}); err != nil {
		return nil, nil, err
	}
	solver, err := assign.NewRegistry().New(b.w.algo, b.seed)
	if err != nil {
		return nil, nil, err
	}
	var got *gap.Assignment
	_, err = rec.call("assign.solve", func() (err error) {
		got, err = solver.Assign(in)
		return err
	})
	return in, got, err
}

// check verifies one assignment: the total delay recomputed from dm (not
// through the instance) must match the instance's own cost, every edge
// must hold its load, and the cost may not beat gap.LowerBound. The
// bound, a 50-iteration Lagrangian, is computed for the first assignment
// only, which becomes the reference; later ones must reproduce it.
func (b *bench) check(dm *topology.DelayMatrix, in *gap.Instance, of []int) error {
	total, err := checkAssignment(dm, b.devices, b.capacity, of)
	if err != nil {
		return err
	}
	if c := in.CostOf(of); !closeTo(c, total) {
		return fmt.Errorf("instance costs the assignment at %v ms, the delay matrix at %v ms", c, total)
	}
	if b.ref == nil {
		if lb := gap.LowerBound(in); lb > total*(1+1e-9) {
			return fmt.Errorf("total delay %v ms beats the lower bound %v ms", total, lb)
		}
		b.ref = append([]int(nil), of...)
		b.meanDelayMs = total / float64(len(of))
		delays := make([]float64, len(of))
		for i, j := range of {
			delays[i] = dm.DelayMs[i][j]
		}
		b.p50DelayMs = median(delays)
		return nil
	}
	for i, j := range of {
		if j != b.ref[i] {
			return fmt.Errorf("assignment differs from the first one at device %d (edge %d, was %d)", i, j, b.ref[i])
		}
	}
	return nil
}

// op runs one operation and checks its outputs after the timed part,
// returning that part's wall milliseconds: the whole plan (delay matrix,
// instance, solve) for the plan workloads, Simulator.Run for
// sim-archive. A sim-archive reference op (see needsReference) checks
// its output inside that part, so its time must not count.
func (b *bench) op(rec *recorder, clock obs.Clock) (float64, error) {
	if b.w.sim {
		return b.simulate(rec, clock)
	}
	t0 := clock.NowMs()
	var dm *topology.DelayMatrix
	rec.call("topology.delay_matrix", func() error {
		dm = topology.NewDelayMatrixWorkers(b.graph, topology.LatencyCost, b.workers)
		return nil
	})
	in, got, err := b.solve(dm, rec)
	took := clock.NowMs() - t0
	if err != nil {
		return 0, err
	}
	return took, b.check(dm, in, got.Of)
}

// needsReference reports whether the deployment's next op is a
// sim-archive reference op: one that validates every line it writes
// while Run is under way and fixes the outputs later ops must reproduce.
func (b *bench) needsReference() bool { return b.w.sim && b.simRef == nil }

// simOutcome is what one simulation produced, compared across ops.
type simOutcome struct {
	sent, ok, missed, dropped int64
	completed, misses, drops  int
	p50Ms, p99Ms              float64
	spans                     streamStats
	slo                       streamStats
}

// simulate runs the sim-archive op: a fresh simulator over the set-up's
// placement with a metrics registry, an SLO tracker and every request's
// spans encoded as JSON lines into byte-counting discard writers. Only
// Run is timed. The first op validates every emitted line; later ops must
// reproduce its streams byte for byte (same length, line count and CRC).
func (b *bench) simulate(rec *recorder, clock obs.Clock) (float64, error) {
	objectives, err := slo.ParseObjectives(sloSpec)
	if err != nil {
		return 0, err
	}
	validate := b.simRef == nil
	sloOut := &countingWriter{validate: validate}
	sloSink := obs.NewJSONL(sloOut)
	tracker, err := slo.New(slo.Config{
		WindowMs:   sloWindowMs,
		Objectives: objectives,
		Sink:       sloSink,
		Metrics:    obs.NewRegistry(),
	})
	if err != nil {
		return 0, err
	}
	spanOut := &countingWriter{validate: validate}
	spanSink := obs.NewJSONL(spanOut)
	var spans obs.Sink = spanSink
	var timed *timedSink
	if rec != nil {
		timed = &timedSink{next: spanSink, clock: clock}
		spans = timed
	}
	reg := obs.NewRegistry()
	sim, err := cluster.New(cluster.Config{
		UplinkMs:    b.uplink.DelayMs,
		DownlinkMs:  b.downlink.DelayMs,
		Devices:     b.devices,
		ServiceRate: experiment.ServiceRates(b.capacity, simHeadroom),
		Assignment:  b.placement,
		WarmupMs:    simWarmupMs,
		Discipline:  cluster.DisciplineFIFO,
		Metrics:     reg,
		Spans:       spans,
		SLO:         tracker,
		Seed:        b.seed,
	})
	if err != nil {
		return 0, err
	}

	var res *cluster.Result
	t0 := clock.NowMs()
	idx, err := rec.call("cluster.run", func() (err error) {
		res, err = sim.Run(simDurationMs)
		return err
	})
	took := clock.NowMs() - t0
	if err != nil {
		return 0, err
	}
	if err := spanSink.Flush(); err != nil {
		return 0, fmt.Errorf("span stream: %w", err)
	}
	if err := sloSink.Flush(); err != nil {
		return 0, fmt.Errorf("slo stream: %w", err)
	}

	out := &simOutcome{
		sent:      reg.Counter("cluster.requests_sent").Value(),
		ok:        reg.Counter("cluster.requests_ok").Value(),
		missed:    reg.Counter("cluster.requests_missed").Value(),
		dropped:   reg.Counter("cluster.requests_dropped").Value(),
		completed: res.Completed,
		misses:    res.DeadlineMisses,
		drops:     res.Dropped,
		p50Ms:     res.Latency.Median(),
		p99Ms:     res.Latency.P99(),
	}
	if out.spans, err = spanOut.finish(); err != nil {
		return 0, fmt.Errorf("span stream: %w", err)
	}
	if out.slo, err = sloOut.finish(); err != nil {
		return 0, fmt.Errorf("slo stream: %w", err)
	}
	rec.setAttr(idx, "requests", out.sent)
	if timed != nil {
		rec.aggregate(idx, "obs.emit", timed.ms, map[string]interface{}{
			"calls": timed.n,
			"bytes": out.spans.bytes,
		})
	}
	if err := b.checkSim(out); err != nil {
		return 0, err
	}
	return took, nil
}

// checkSim verifies one simulation's outputs: the registry's counters
// must account for no more requests than were sent, every finished
// request (ok, missed or dropped at the edge) must have exactly one root
// span, and the streams and results must match the first op's.
func (b *bench) checkSim(out *simOutcome) error {
	finished := out.ok + out.missed + out.dropped
	if out.sent < finished {
		return fmt.Errorf("registry: %d requests sent but %d finished", out.sent, finished)
	}
	if out.completed == 0 {
		return fmt.Errorf("no request completed after warm-up")
	}
	if b.simRef == nil {
		if out.spans.roots != finished {
			return fmt.Errorf("%d root spans for %d finished requests", out.spans.roots, finished)
		}
		b.simRef = out
		return nil
	}
	ref := *b.simRef
	ref.spans.roots, ref.slo.roots = out.spans.roots, out.slo.roots
	if *out != ref {
		return fmt.Errorf("simulation differs from the first op's: %+v vs %+v", *out, *b.simRef)
	}
	return nil
}

// latencyP50Ms is the median latency of one request on the deployment's
// placement; fixed by the seed. The plan workloads have no queueing or
// service, so it is the median over devices of the assigned delay; for
// sim-archive it is the simulated median end-to-end latency (uplink,
// queueing, service and downlink) of the requests completed after
// warm-up.
func (b *bench) latencyP50Ms() float64 {
	if b.simRef == nil {
		return b.p50DelayMs
	}
	return b.simRef.p50Ms
}

// simP99Ms is the post-warm-up p99 latency of the deployment's
// simulation, 0 for the plan workloads; fixed by the seed.
func (b *bench) simP99Ms() float64 {
	if b.simRef == nil {
		return 0
	}
	return b.simRef.p99Ms
}

// simMissRate is the share of the simulation's post-warm-up requests
// that missed their deadline or were dropped, 0 for the plan workloads;
// fixed by the seed.
func (b *bench) simMissRate() float64 {
	r := b.simRef
	if r == nil || r.completed+r.drops == 0 {
		return 0
	}
	return float64(r.misses+r.drops) / float64(r.completed+r.drops)
}

// timedSink wraps the span sink in a traced run: it sums the wall time
// spent inside the wrapped Emit and counts the calls.
type timedSink struct {
	next  obs.Sink
	clock obs.Clock
	ms    float64
	n     int
}

func (t *timedSink) Emit(e obs.Event) {
	t0 := t.clock.NowMs()
	t.next.Emit(e)
	t.ms += t.clock.NowMs() - t0
	t.n++
}
