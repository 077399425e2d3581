package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"taccc/internal/obs"
	"taccc/internal/obs/sysmon"
)

const (
	// A run sets each deployment up at least setupsPerDeployment times
	// and goes on, round-robin, until setupBudgetMs of wall time has gone
	// into set-ups; a deployment's set-up time is the median of its
	// set-ups, so neither one cold build nor a short hiccup sets it.
	setupsPerDeployment = 3
	setupBudgetMs       = 3000
	// opsPerDeployment is the least number of timed ops per deployment in
	// an untraced run, whatever --seconds says, so that a deployment's
	// median op drops one slow op.
	opsPerDeployment = 3
	// peakInterval is the heap sampling period of sysmon.WatchPeak.
	peakInterval = 5 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: plan-large, rl-plan or sim-archive")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "how long to keep measuring ops, in wall seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}

	res, err := measure(w, *seed, float64(*seconds)*1000, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs one workload. It sets each of the workload's deployments
// up several times, round-robin, and keeps the last set-up of each. It
// then runs the untimed ops: the run's first op, which warms the caches,
// and on sim-archive each deployment's reference op, which validates
// every line it writes. Only then does the --seconds budget (ms) start:
// ops run on the deployments round-robin until it has passed and every
// deployment has had opsPerDeployment timed ops (in a traced run, one
// untraced and one traced op, so the trace's own overhead is measured on
// the same inputs). The first op on each deployment fixes the outputs
// its later ops are checked against.
//
// Each figure is first taken per deployment (the median of its set-ups
// or ops) and then averaged over the deployments, so one seed's
// deployments weigh the same however many ops each got. The op's figure
// is its wall time over the reference kernel's (see refKernel), run once
// before and once after each timed op.
func measure(w spec, seed int64, ms float64, traced bool, logw io.Writer) (*result, error) {
	clock := obs.WallClock()
	var rec *recorder
	if traced {
		rec = newRecorder(clock)
	}

	deps := make([]*bench, w.deployments)
	setupMs := make([][]float64, len(deps))
	spent := 0.0
	for n := 0; n < setupsPerDeployment*len(deps) || n%len(deps) != 0 || spent < setupBudgetMs; n++ {
		k := n % len(deps)
		runtime.GC()
		rec.begin("setup")
		t0 := clock.NowMs()
		b, err := newBench(w, deploymentSeed(seed, k), rec)
		took := clock.NowMs() - t0
		rec.end()
		if err != nil {
			return nil, fmt.Errorf("deployment %d: %w", k, err)
		}
		if deps[k] != nil {
			if err := deps[k].sameInputs(b); err != nil {
				return nil, fmt.Errorf("deployment %d: %w", k, err)
			}
		}
		fmt.Fprintf(logw, "perfbench: %s: set-up %d of deployment %d: %.1f ms\n", w.name, len(setupMs[k])+1, k, took)
		deps[k] = b
		setupMs[k] = append(setupMs[k], took)
		spent += took
	}
	for k, b := range deps {
		fmt.Fprintf(logw, "perfbench: %s: deployment %d has seed %d\n", w.name, k, b.seed)
		if err := b.checkSetup(); err != nil {
			return nil, fmt.Errorf("deployment %d: %w", k, err)
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	type samples struct {
		done                   int
		opMs, tracedMs, peakMB []float64
		// ratio is each untraced timed op's wall time over the mean of
		// the reference kernel runs just before and after it.
		ratio []float64
	}
	per := make([]samples, len(deps))
	ref, err := newRefKernel()
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	defer ref.close()
	var refMs []float64
	// kernel runs the reference kernel once and keeps its time.
	kernel := func() (float64, error) {
		ms, err := ref.run(clock)
		refMs = append(refMs, ms)
		return ms, err
	}
	// opOnce runs one op on deployment k and times it unless untimed is
	// set; a timed op sits between two runs of the reference kernel. In
	// a traced run every second timed op of a deployment is traced.
	opOnce := func(k int, untimed bool) {
		var r *recorder
		if traced && !untimed && per[k].done%2 == 1 {
			r = rec
		}
		var before float64
		if !untimed {
			var err error
			if before, err = kernel(); err != nil {
				res.Correct = false
				fmt.Fprintf(logw, "perfbench: %s: reference kernel: %v\n", w.name, err)
				return
			}
		}
		runtime.GC()
		stopPeak := sysmon.WatchPeak(peakInterval)
		r.begin("op")
		took, err := deps[k].op(r, clock)
		r.end()
		peak := float64(stopPeak()) / 1e6
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(logw, "perfbench: %s: op %d on deployment %d: %v\n", w.name, res.Attempted, k, err)
			return
		}
		fmt.Fprintf(logw, "perfbench: %s: op %d on deployment %d (timed %t, traced %t): %.1f ms, peak heap %.1f MB\n",
			w.name, res.Attempted, k, !untimed, r != nil, took, peak)
		if untimed {
			return
		}
		after, err := kernel()
		if err != nil {
			res.Correct = false
			fmt.Fprintf(logw, "perfbench: %s: reference kernel: %v\n", w.name, err)
			return
		}
		fmt.Fprintf(logw, "perfbench: %s: reference kernel around op %d: %.1f ms, %.1f ms\n", w.name, res.Attempted, before, after)
		per[k].done++
		if r != nil {
			per[k].tracedMs = append(per[k].tracedMs, took)
		} else {
			per[k].opMs = append(per[k].opMs, took)
			per[k].peakMB = append(per[k].peakMB, peak)
			per[k].ratio = append(per[k].ratio, took/((before+after)/2))
		}
	}

	opOnce(0, true)
	for k, b := range deps {
		if b.needsReference() {
			opOnce(k, true)
		}
	}
	need := opsPerDeployment
	if traced {
		need = 2
	}
	deadline := clock.NowMs() + ms
	for i := 0; res.Correct; i++ {
		finished := clock.NowMs() >= deadline
		for _, p := range per {
			finished = finished && p.done >= need
		}
		if finished {
			break
		}
		opOnce(i%len(deps), false)
	}
	if !res.Correct {
		return res, nil
	}
	for k, p := range per {
		fmt.Fprintf(logw, "perfbench: %s: deployment %d: %d set-ups, %d timed ops (%d traced), median op %.1f ms\n",
			w.name, k, len(setupMs[k]), p.done, len(p.tracedMs), median(p.opMs))
	}

	avg := func(f func(k int) float64) float64 {
		sum := 0.0
		for k := range deps {
			sum += f(k)
		}
		return sum / float64(len(deps))
	}
	opMs := avg(func(k int) float64 { return median(per[k].opMs) })
	if !traced {
		res.Metrics["setup_s"] = metric{avg(func(k int) float64 { return median(setupMs[k]) }) / 1000, "s"}
		res.Metrics["op_ref_ratio"] = metric{avg(func(k int) float64 { return median(per[k].ratio) }), "ratio"}
		res.Metrics["peak_heap_mb"] = metric{avg(func(k int) float64 { return median(per[k].peakMB) }), "MB"}
		res.Metrics["mean_delay_ms"] = metric{avg(func(k int) float64 { return deps[k].meanDelayMs }), "ms"}
		res.Metrics["latency_p50_ms"] = metric{avg(func(k int) float64 { return deps[k].latencyP50Ms() }), "ms"}
		return res, nil
	}
	layers, err := rec.finish(w, seed)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		res.Metrics[k] = v
	}
	tracedMs := avg(func(k int) float64 { return median(per[k].tracedMs) })
	res.Metrics["trace.overhead_pct"] = metric{100 * (tracedMs/opMs - 1), "%"}
	res.Metrics["host.ref_kernel_ms"] = metric{median(refMs), "ms"}
	p99, miss := avg(func(k int) float64 { return deps[k].simP99Ms() }), avg(func(k int) float64 { return deps[k].simMissRate() })
	res.Metrics["cluster.p99_ms"] = metric{p99, "ms"}
	res.Metrics["cluster.miss_rate"] = metric{miss, "ratio"}
	return res, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
