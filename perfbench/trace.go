package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"taccc/internal/obs"
	"taccc/internal/obs/sysmon"
)

// recorder keeps a traced run's spans in memory: one root span per unit
// of work (a set-up or an op, each its own trace ID) and one child span
// per call into a layer, carrying the call's allocation counts. A nil
// recorder is the untraced mode: calls run bare, with no clock reads.
type recorder struct {
	clock obs.Clock
	spans []obs.Span
	unit  obs.TraceID
	root  int
}

func newRecorder(clock obs.Clock) *recorder { return &recorder{clock: clock} }

// begin opens a new unit of work named kind.
func (r *recorder) begin(kind string) {
	if r == nil {
		return
	}
	r.unit++
	r.root = len(r.spans)
	r.spans = append(r.spans, obs.Span{Trace: r.unit, ID: 1, Name: kind, StartMs: r.clock.NowMs()})
}

// end closes the current unit of work.
func (r *recorder) end() {
	if r == nil {
		return
	}
	r.spans[r.root].EndMs = r.clock.NowMs()
}

// call runs f as one call into a layer and records it as a child of the
// current unit, with the allocations, bytes allocated and GC cycles the
// call caused. It returns the span's index for setAttr and aggregate.
func (r *recorder) call(name string, f func() error) (int, error) {
	if r == nil {
		return -1, f()
	}
	before := sysmon.ReadSnapshot()
	start := r.clock.NowMs()
	err := f()
	end := r.clock.NowMs()
	after := sysmon.ReadSnapshot()
	r.spans = append(r.spans, obs.Span{
		Trace: r.unit, ID: obs.SpanID(len(r.spans) - r.root + 1), Parent: 1,
		Name: name, StartMs: start, EndMs: end,
		Attrs: map[string]interface{}{
			"allocs":    after.Mallocs - before.Mallocs,
			"alloc_mb":  float64(after.TotalAllocBytes-before.TotalAllocBytes) / 1e6,
			"gc_cycles": after.GCCycles - before.GCCycles,
		},
	})
	return len(r.spans) - 1, err
}

// setAttr sets an attribute on the span at index i.
func (r *recorder) setAttr(i int, key string, v interface{}) {
	if r == nil {
		return
	}
	r.spans[i].Attrs[key] = v
}

// aggregate records many short intervals inside the span at index
// parent as one child span whose duration is their sum, ms, drawn from
// the parent's start. Per-call spans for every span-sink Emit would be
// hundreds of thousands per op; the sum is all the self times need.
func (r *recorder) aggregate(parent int, name string, ms float64, attrs map[string]interface{}) {
	if r == nil {
		return
	}
	p := r.spans[parent]
	attrs["aggregate"] = true
	r.spans = append(r.spans, obs.Span{
		Trace: r.unit, ID: obs.SpanID(len(r.spans) - r.root + 1), Parent: p.ID,
		Name: name, StartMs: p.StartMs, EndMs: p.StartMs + ms, Attrs: attrs,
	})
}

// finish writes the spans once, as a Chrome trace under
// .bench_build/traces, reads the file back through the strict reader
// tactrace -chrome uses, and computes the per-layer metrics from it.
func (r *recorder) finish(w spec, seed int64) (map[string]metric, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := obs.WriteChromeTrace(f, r.spans); err != nil {
		f.Close()
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ct, err := obs.ReadChromeTrace(f)
	if err != nil {
		return nil, fmt.Errorf("reading back %s: %w", path, err)
	}
	return layerMetrics(ct)
}

// unitSums holds, per unit of work in trace-ID order, each layer's
// summed self time ("<span>.self_ms") and summed numeric attributes
// ("<span>.<attr>").
type unitSums []map[string]float64

// layerMetrics computes the per-layer metrics from a Chrome trace: a
// span's self time is its duration minus its children's, each layer's
// value is summed within a unit of work, and the metric is the median
// over the units that called the layer (0 when none did).
func layerMetrics(ct obs.ChromeTrace) (map[string]metric, error) {
	type key struct {
		trace obs.TraceID
		span  obs.SpanID
	}
	type ev struct {
		name  string
		durMs float64
		child float64
		args  map[string]interface{}
	}
	events := map[key]*ev{}
	var order []key
	parents := map[key]key{}
	for _, e := range ct.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		trace, ok1 := argNum(e.Args, "trace")
		span, ok2 := argNum(e.Args, "span")
		if !ok1 || !ok2 || e.Dur == nil {
			return nil, fmt.Errorf("span %q lacks trace, span or duration", e.Name)
		}
		k := key{obs.TraceID(trace), obs.SpanID(span)}
		events[k] = &ev{name: e.Name, durMs: *e.Dur / 1000, args: e.Args}
		order = append(order, k)
		if p, ok := argNum(e.Args, "parent"); ok {
			parents[k] = key{k.trace, obs.SpanID(p)}
		}
	}
	for _, k := range order {
		if p, ok := parents[k]; ok {
			pe, ok := events[p]
			if !ok {
				return nil, fmt.Errorf("span %q has no parent %d in trace %d", events[k].name, p.span, p.trace)
			}
			pe.child += events[k].durMs
		}
	}
	var sums unitSums
	for _, k := range order {
		e := events[k]
		for int(k.trace) > len(sums) {
			sums = append(sums, map[string]float64{})
		}
		u := sums[k.trace-1]
		u[e.name+".self_ms"] += e.durMs - e.child
		for _, a := range []string{"allocs", "alloc_mb", "gc_cycles", "requests", "calls", "bytes"} {
			if v, ok := argNum(e.args, a); ok {
				u[e.name+"."+a] += v
			}
		}
	}

	ms := func(span string) metric { return metric{sums.median(span+".self_ms", ""), "ms"} }
	return map[string]metric{
		"topology.generate_ms":         ms("topology.generate"),
		"workload.generate_ms":         ms("workload.generate"),
		"topology.delay_matrix_ms":     ms("topology.delay_matrix"),
		"topology.delay_matrix_allocs": {sums.median("topology.delay_matrix.allocs", ""), "count"},
		"topology.delay_matrix_mb":     {sums.median("topology.delay_matrix.alloc_mb", ""), "MB"},
		"gap.instance_ms":              ms("gap.instance"),
		"gap.instance_mb":              {sums.median("gap.instance.alloc_mb", ""), "MB"},
		"assign.solve_ms":              ms("assign.solve"),
		"assign.solve_allocs":          {sums.median("assign.solve.allocs", ""), "count"},
		"assign.solve_mb":              {sums.median("assign.solve.alloc_mb", ""), "MB"},
		"assign.gc_cycles":             {sums.median("assign.solve.gc_cycles", ""), "count"},
		"cluster.run_self_ms":          ms("cluster.run"),
		"cluster.requests":             {sums.median("cluster.run.requests", ""), "count"},
		"cluster.allocs_per_req":       {sums.median("cluster.run.allocs", "cluster.run.requests"), "count"},
		"obs.emit_ms":                  ms("obs.emit"),
		"obs.spans":                    {sums.median("obs.emit.calls", ""), "count"},
		"obs.bytes_per_req":            {sums.median("obs.emit.bytes", "cluster.run.requests"), "B"},
	}, nil
}

// median returns the median over the units that carry num of num, or of
// num/den when den is given; 0 when no unit carries num.
func (s unitSums) median(num, den string) float64 {
	var xs []float64
	for _, u := range s {
		v, ok := u[num]
		if !ok {
			continue
		}
		if den != "" {
			d := u[den]
			if d == 0 {
				continue
			}
			v /= d
		}
		xs = append(xs, v)
	}
	return median(xs)
}

// argNum reads a numeric Chrome event argument.
func argNum(args map[string]interface{}, key string) (float64, bool) {
	switch v := args[key].(type) {
	case float64:
		return v, true
	case json.Number:
		f, err := v.Float64()
		return f, err == nil
	}
	return 0, false
}
