// Command tacsolve solves an assignment-problem instance (as produced by
// tacgen) with a chosen algorithm and reports delay, load and feasibility.
//
// Usage:
//
//	tacsolve -instance inst.json -algo qlearning
//	tacsolve -instance inst.json -algo exact            # branch-and-bound
//	tacsolve -instance inst.json -algo greedy -o a.json # save assignment
//	tacsolve -instance inst.json -algo all -workers 4   # compare, 4 solvers at a time
//	tacsolve -instance inst.json -archive runs/a        # self-contained run archive
//	tacsolve -iot 200 -edge 12 -rho 0.8 -algo tabu      # generate the scenario in-process
//	tacsolve -iot 200 -edge 12 -trace-out trace.json    # + Perfetto pipeline trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	taccc "taccc"
	"taccc/internal/cliutil"
	"taccc/internal/obs"
	"taccc/internal/obs/runlog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tacsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		instPath = fs.String("instance", "", "instance JSON file (or generate one with -iot/-edge)")
		iot      = fs.Int("iot", 0, "scenario mode: number of IoT devices (generates the instance in-process; excludes -instance)")
		edge     = fs.Int("edge", 0, "scenario mode: number of edge servers")
		rho      = fs.Float64("rho", 0.7, "scenario mode: capacity tightness in (0, 1]")
		family   = fs.String("family", "hierarchical", "scenario mode: topology family (hierarchical, geometric, waxman, barabasi-albert, grid, fattree, star, ring)")
		algo     = fs.String("algo", "qlearning", "algorithm name, 'exact' for branch-and-bound, or 'all' to compare every algorithm")
		seed     = fs.Int64("seed", 1, "algorithm seed")
		out      = fs.String("o", "", "write the assignment JSON here")
		list     = fs.Bool("list", false, "list available algorithms and exit")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "parallelism for -algo all (1 = sequential); the portfolio algorithm always runs its members concurrently")
		progress = fs.Bool("progress", false, "print solver improvements to stderr as they happen")
		metrics  = fs.String("metrics-out", "", "write a metrics-registry snapshot JSON here on exit")
	)
	version := cliutil.VersionFlag(fs)
	var profiles cliutil.Profiles
	profiles.Flags(fs)
	var telemetry cliutil.Telemetry
	telemetry.Flags(fs)
	var eventsFlag cliutil.EventsFlag
	eventsFlag.Flags(fs, "per-iteration solver events")
	var archive cliutil.Archive
	archive.Flags(fs)
	var trace cliutil.Trace
	trace.Flags(fs)
	var sysmonFlag cliutil.Sysmon
	sysmonFlag.Flags(fs)
	var sloFlag cliutil.SLO
	sloFlag.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		cliutil.FprintVersion(stdout, "tacsolve")
		return 0
	}
	if err := sysmonFlag.Validate(); err != nil {
		fmt.Fprintf(stderr, "tacsolve: %v\n", err)
		return 2
	}
	if err := sloFlag.Validate(); err != nil {
		fmt.Fprintf(stderr, "tacsolve: %v\n", err)
		return 2
	}
	if err := archive.Start("tacsolve", fs, *seed); err != nil {
		fmt.Fprintf(stderr, "tacsolve: %v\n", err)
		return 1
	}
	// The resource sampler starts before tracing so the root phase (and
	// everything under it) carries begin/end resource attributes.
	if err := sysmonFlag.Start(&archive, trace.Enabled()); err != nil {
		fmt.Fprintf(stderr, "tacsolve: %v\n", err)
		return 1
	}
	defer sysmonFlag.Stop()
	if err := sloFlag.Start(&archive); err != nil {
		fmt.Fprintf(stderr, "tacsolve: %v\n", err)
		return 1
	}
	traceRoot, err := trace.Start("tacsolve", &archive, sysmonFlag.Source())
	if err != nil {
		fmt.Fprintf(stderr, "tacsolve: %v\n", err)
		return 1
	}
	stopProfiles, err := profiles.Start(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "tacsolve: %v\n", err)
		return 1
	}
	defer stopProfiles()

	// Observability hooks: all optional, none changes solver results.
	var sinks []taccc.ProgressSink
	if *progress {
		sinks = append(sinks, taccc.NewProgressWriter(stderr))
	}
	eventStream, err := eventsFlag.Open()
	if err != nil {
		fmt.Fprintf(stderr, "tacsolve: %v\n", err)
		return 1
	}
	defer eventStream.Close() //lint:allow sinkerr backstop for early returns; the success path checks Close in finishObs
	// Solver iteration events flow to the -events file and the -archive
	// event stream alike.
	var evSinks []obs.Sink
	if eventStream != nil {
		evSinks = append(evSinks, eventStream.Sink())
	}
	if archive.Enabled() {
		evSinks = append(evSinks, archive.Sink())
	}
	if eventSink := obs.MultiSink(evSinks...); eventSink != nil {
		sinks = append(sinks, taccc.EventProgress(eventSink))
	}
	var metricsReg *taccc.MetricsRegistry
	if *metrics != "" || telemetry.Enabled() || archive.Enabled() {
		metricsReg = taccc.NewMetricsRegistry()
		sinks = append(sinks, taccc.MetricsProgress(metricsReg))
	}
	stopTelemetry, err := telemetry.Start(stderr, metricsReg, sysmonFlag.Registry(), sloFlag.Registry())
	if err != nil {
		fmt.Fprintf(stderr, "tacsolve: %v\n", err)
		return 1
	}
	defer stopTelemetry()
	sink := taccc.MultiProgress(sinks...)
	finishObs := func(summary runlog.Summary) int {
		// Detach the resource sampler from the archive/trace sinks (with
		// one final sample) before those streams are sealed, then finish
		// tracing first: it ends the root phase, so the final spans are in
		// the archive's trace stream before Finish seals it.
		sysmonFlag.CloseStreams()
		if err := trace.Finish(stdout, sysmonFlag.Counters()); err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
		if err := eventStream.Close(); err != nil {
			fmt.Fprintf(stderr, "tacsolve: events: %v\n", err)
			return 1
		}
		if err := archive.Finish(metricsReg, summary, stdout); err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
		if *metrics != "" {
			f, err := os.Create(*metrics)
			if err != nil {
				fmt.Fprintf(stderr, "tacsolve: %v\n", err)
				return 1
			}
			defer f.Close()
			if err := metricsReg.WriteJSON(f); err != nil {
				fmt.Fprintf(stderr, "tacsolve: metrics: %v\n", err)
				return 1
			}
		}
		return 0
	}

	reg := taccc.NewAlgorithmRegistry()
	if *list {
		fmt.Fprintln(stdout, strings.Join(append(reg.Names(), "exact"), "\n"))
		return 0
	}
	scenarioMode := *iot > 0 || *edge > 0
	if scenarioMode && *instPath != "" {
		fmt.Fprintln(stderr, "tacsolve: -instance and -iot/-edge are mutually exclusive")
		return 2
	}
	if !scenarioMode && *instPath == "" {
		fmt.Fprintln(stderr, "tacsolve: either -instance or -iot/-edge is required")
		return 2
	}
	var in *taccc.Instance
	if scenarioMode {
		if *iot <= 0 || *edge <= 0 {
			fmt.Fprintln(stderr, "tacsolve: scenario mode needs both -iot and -edge > 0")
			return 2
		}
		sc := taccc.Scenario{
			Family: taccc.Family(*family), NumIoT: *iot, NumEdge: *edge,
			Rho: *rho, Seed: *seed, Workers: *workers, Trace: traceRoot,
		}
		built, err := sc.Build()
		if err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
		in = built.Instance
	} else {
		f, err := os.Open(*instPath)
		if err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
		in, err = taccc.ReadInstance(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
	}

	if *algo == "all" {
		summary, code := compareAll(in, reg, *seed, *workers, sink, traceRoot, stdout)
		if code != 0 {
			return code
		}
		return finishObs(summary)
	}

	start := time.Now()
	solvePh := traceRoot.Child("solve")
	solvePh.SetAttr("algo", *algo)
	var got *taccc.Assignment
	if *algo == "exact" {
		res, err := taccc.BranchAndBound(in, taccc.BnBOptions{})
		if err != nil {
			solvePh.End()
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
		got = res.Assignment
		fmt.Fprintf(stdout, "proven optimal: %v (nodes expanded: %d)\n", res.Proven, res.Nodes)
	} else {
		a, err := reg.New(*algo, *seed)
		if err != nil {
			solvePh.End()
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 2
		}
		if sink != nil && !taccc.WithProgress(a, sink) {
			fmt.Fprintf(stderr, "tacsolve: note: %s does not report iteration progress\n", *algo)
		}
		taccc.WithPhases(a, solvePh)
		got, err = a.Assign(in)
		if err != nil {
			solvePh.End()
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
	}
	solvePh.End()
	elapsed := time.Since(start)
	bound := lowerBound(in, traceRoot)

	fmt.Fprintf(stdout, "algorithm:    %s\n", *algo)
	fmt.Fprintf(stdout, "devices:      %d  edges: %d\n", in.N(), in.M())
	fmt.Fprintf(stdout, "total delay:  %.3f ms\n", in.TotalCost(got))
	fmt.Fprintf(stdout, "mean delay:   %.3f ms\n", in.MeanCost(got))
	fmt.Fprintf(stdout, "max delay:    %.3f ms\n", in.MaxCost(got))
	fmt.Fprintf(stdout, "lower bound:  %.3f ms (total)\n", bound)
	fmt.Fprintf(stdout, "imbalance:    %.3f\n", in.Imbalance(got))
	fmt.Fprintf(stdout, "feasible:     %v\n", in.Feasible(got))
	fmt.Fprintf(stdout, "solve time:   %s\n", elapsed.Round(time.Microsecond))
	util := in.Utilization(got)
	fmt.Fprint(stdout, "edge utilization:")
	for _, u := range util {
		fmt.Fprintf(stdout, " %.2f", u)
	}
	fmt.Fprintln(stdout)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := got.WriteJSON(f); err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
	}
	// Static placement SLO check: with no queueing dynamics, each
	// device's assigned delay is its end-to-end latency, so the whole
	// placement lands in window 0 and the verdict is "does this
	// assignment meet the objectives before load is applied". (tacsim
	// gives the dynamic, queue-aware verdict.)
	if tr := sloFlag.Tracker(); tr != nil {
		for i := 0; i < in.N(); i++ {
			tr.Observe(0, in.CostAt(i, got.Of[i]), false)
		}
		tr.Finish(tr.WindowMs())
		sloFlag.PrintSummary(stdout)
	}
	feasible := 0.0
	if in.Feasible(got) {
		feasible = 1
	}
	return finishObs(runlog.Summary{
		"instance.devices":     float64(in.N()),
		"instance.edges":       float64(in.M()),
		"solve.total_delay_ms": in.TotalCost(got),
		"solve.mean_delay_ms":  in.MeanCost(got),
		"solve.max_delay_ms":   in.MaxCost(got),
		"solve.lower_bound_ms": bound,
		"solve.imbalance":      in.Imbalance(got),
		"solve.feasible":       feasible,
	})
}

// compareAll solves the instance with every registered algorithm — up to
// workers at a time — and prints a comparison table in registry order. Each
// algorithm owns one row slot, so the table — and the returned archive
// summary (algo.<name>.mean_delay_ms / .max_delay_ms / .feasible) — is
// identical at any parallelism. The progress sink, when non-nil, is
// attached to every supporting algorithm; events from concurrent solvers
// interleave but each carries its algorithm name.
func compareAll(in *taccc.Instance, reg *taccc.AlgorithmRegistry, seed int64, workers int, sink taccc.ProgressSink, traceRoot *taccc.Phase, stdout io.Writer) (runlog.Summary, int) {
	type row struct {
		got     *taccc.Assignment
		err     error
		elapsed time.Duration
	}
	names := reg.Names()
	rows := make([]row, len(names))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, name := range names {
		a, err := reg.New(name, seed)
		if err != nil {
			rows[i].err = err
			continue
		}
		if sink != nil {
			taccc.WithProgress(a, sink)
		}
		wg.Add(1)
		go func(i int, name string, a taccc.Assigner) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ph := traceRoot.Child(name)
			taccc.WithPhases(a, ph)
			start := time.Now()
			rows[i].got, rows[i].err = a.Assign(in)
			rows[i].elapsed = time.Since(start).Round(time.Microsecond)
			ph.End()
		}(i, name, a)
	}
	wg.Wait()
	bound := lowerBound(in, traceRoot)
	summary := runlog.Summary{
		"instance.devices":     float64(in.N()),
		"instance.edges":       float64(in.M()),
		"solve.lower_bound_ms": bound,
	}
	fmt.Fprintf(stdout, "%-18s %12s %12s %10s %12s\n", "algorithm", "mean ms", "max ms", "feasible", "time")
	fmt.Fprintf(stdout, "%-18s %12s %12s %10s %12s\n", "---------", "-------", "------", "--------", "----")
	for i, name := range names {
		r := rows[i]
		if r.err != nil {
			fmt.Fprintf(stdout, "%-18s %12s %12s %10s %12s\n", name, "-", "-", "no", r.elapsed)
			summary["algo."+name+".feasible"] = 0
			continue
		}
		fmt.Fprintf(stdout, "%-18s %12.3f %12.3f %10v %12s\n",
			name, in.MeanCost(r.got), in.MaxCost(r.got), in.Feasible(r.got), r.elapsed)
		summary["algo."+name+".mean_delay_ms"] = in.MeanCost(r.got)
		summary["algo."+name+".max_delay_ms"] = in.MaxCost(r.got)
		feasible := 0.0
		if in.Feasible(r.got) {
			feasible = 1
		}
		summary["algo."+name+".feasible"] = feasible
	}
	fmt.Fprintf(stdout, "lower bound (mean): %.3f ms\n", bound/float64(in.N()))
	return summary, 0
}

// lowerBound computes the instance's Lagrangian lower bound once per run,
// in its own "bound" phase: at 10k devices it costs about a second.
func lowerBound(in *taccc.Instance, traceRoot *taccc.Phase) float64 {
	ph := traceRoot.Child("bound")
	defer ph.End()
	return taccc.LowerBound(in)
}
