// Command perfbench is the repository benchmark. It builds one named
// workload's inputs from a seed, times the workload's operation end to
// end, checks every output, and prints one JSON result line as the last
// line of standard output. Run it from the repository root:
//
//	bash perfbench/run.sh --workload plan-large --seed 7 --seconds 20 --trace 0
//
// run.sh builds the binary from source under .bench_build (Go caches
// included) and passes the flags on. Exit codes: 0 when every check
// passed, 1 when a check failed or the inputs could not be built, 2 on
// bad flags.
//
// # Load
//
// One process, one closed-loop client: ops run back to back, each after
// the previous one has finished and been checked. GOMAXPROCS is left at
// the machine's CPU count and the delay matrix is built with that many
// workers. Every topology is hierarchical, the family in which IoT nodes
// are degree-1 leaves on their gateway. A run draws several independent
// deployments from its seed (3, 4 and 2 for the workloads below) and
// sets each up at least three times, round-robin, for at least 3 s in
// all. The run's first op only warms the caches, and each sim-archive
// deployment's first op validates every line it writes; neither is
// timed. Only then do the --seconds start: ops run on the deployments
// round-robin until the time has passed and every deployment has had at
// least three timed ops (a traced run: one untraced and one traced), so
// a run may take longer than --seconds. The reference kernel runs once
// before and once after every timed op. Each figure is the median of a
// deployment's set-ups or timed ops, so one slow op does not set it,
// averaged over the deployments, because op time and heap depend on the
// instance and one deployment per seed left the figures too far apart
// from seed to seed. stderr names every deployment's seed, which tacsolve
// and tacsim build the same deployment from, and how many set-ups and
// timed ops it got.
//
// # Workloads
//
// One per ROADMAP performance item, each with the prediction the item
// should meet:
//
//	plan-large   10000 IoT x 250 edges, rho 0.85, tabu. The op goes from
//	             the generated graph and devices to a checked assignment:
//	             topology.NewDelayMatrixWorkers, gap.FromTopology, Assign.
//	             Its n x m matrices (2.5 M cells, 20 MB each) are far
//	             larger than cache. Item 2 (factored delay matrix, one
//	             flat instance copy) should cut op_ref_ratio and
//	             peak_heap_mb here and leave rl-plan and sim-archive
//	             flat.
//	rl-plan      2000 x 50, rho 0.95, qlearning (the paper's solver and
//	             tacsolve's default). The same op in cache: the delay
//	             matrix is about 1% of it, the RL episode loop nearly all;
//	             the tight rho makes capacity dead ends frequent. Item 3
//	             (one allocation-free RL engine) should cut op_ref_ratio
//	             and peak_heap_mb here and leave the other two flat.
//	sim-archive  2000 x 50, rho 0.85, greedy placement in set-up. The op
//	             is cluster.Simulator.Run, FIFO, 22 s of simulated time of
//	             which the first 2 s are warm-up, with what
//	             `tacsim -archive -slo 'p95<=20@90,miss<=0.05'` attaches:
//	             a metrics registry, an SLO tracker, and every request's
//	             spans encoded by obs.JSONL into a byte-counting discard
//	             writer. Span encoding is most of Run and absent from both
//	             plan workloads. Item 4 (sampling, a typed encoder) should
//	             cut op_ref_ratio here and leave both plans flat.
//
// The 40000 x 1000 rung of the ROADMAP scale ladder is left out: one op
// takes about 90 s, too long to repeat the dozens of times a comparison
// needs.
//
// # End-to-end metrics (--trace 0)
//
//	setup_s         wall seconds to build one deployment: topology,
//	                devices, capacities; for sim-archive also the uplink
//	                matrix, the greedy placement and the downlink matrix
//	op_ref_ratio    wall time of one op (the whole plan for the plan
//	                workloads, Run for sim-archive) over the wall time of
//	                the reference kernel run just before and after it
//	peak_heap_mb    peak heap during an op, read by sysmon.WatchPeak
//	mean_delay_ms   the paper's objective for the placement produced,
//	                recomputed from the delay matrix
//	latency_p50_ms  median latency of one request: over devices, the
//	                assigned delay for the plan workloads (the paper's
//	                model has no queueing); the simulated end-to-end
//	                latency of the requests completed after warm-up for
//	                sim-archive, the output of the op itself
//
// op_ref_ratio is the op's time in units of a reference kernel (see
// refKernel): fixed standard-library work with an encoding part
// (json.Marshal of span-like maps) and a memory part (2 KB rows read at
// random from a 64 MB region), so no change to the repository moves it.
// The kernel runs once before and once after every timed op, and the
// op's wall time is divided by the mean of the two. Raw wall seconds are
// not a usable gate on a shared host: over ten minutes of back-to-back
// sim-archive ops on 2 vCPUs the same op took from 2.8 to 7.2 s, in
// swings lasting a minute or more, longer than a run, and process CPU
// time swung with it. The kernel slows with the host, so the ratio
// moves less than the wall time does; a faster op still lowers it in
// proportion. stderr prints every op's wall milliseconds and both kernel
// times around it, and the traced run reports the kernel's median as
// host.ref_kernel_ms, so wall seconds can be read back. A change that
// alters process-wide runtime settings (GOGC, a memory limit) moves the
// kernel too; judge it on those wall times.
//
// mean_delay_ms and latency_p50_ms are fixed by the seed, so a change
// that moves them changed results, not speed. Failed ops are the result
// line's failed count out of attempted. The simulation's p99 latency and
// miss rate are fixed by the seed too, but they swing by a factor of two
// between seeds, so they are reported in the traced run, where no bound
// applies. The simulated mean latency is no steadier: it ranged from 40
// to 131 ms over twelve deployments, where the median stayed within
// 18-21 ms.
//
// # Per-layer metrics (--trace 1)
//
// The traced run records a span around each of the benchmark's own calls
// into a layer, keeps the spans in memory and writes them once, at the
// end, with obs.WriteChromeTrace to .bench_build/traces. It reads the
// file back through obs.ReadChromeTrace, the check tactrace -chrome
// makes, and computes every figure from it: a span's self time is its
// duration minus its children's, summed per set-up or op, and the metric
// is the median over the set-ups or ops that called the layer (0 where
// none did). Each layer metric and what it should move:
//
//	topology.generate_ms, workload.generate_ms  setup_s, all workloads
//	topology.delay_matrix_ms, _allocs, _mb      op_ref_ratio and
//	                                            peak_heap_mb on
//	                                            plan-large; near 0 in
//	                                            rl-plan's op
//	gap.instance_ms, gap.instance_mb            peak_heap_mb and
//	                                            op_ref_ratio on plan-large
//	assign.solve_ms                             op_ref_ratio on both plans
//	assign.solve_allocs, _mb, assign.gc_cycles  op_ref_ratio and
//	                                            peak_heap_mb on rl-plan
//	cluster.run_self_ms (Run minus obs.emit_ms),
//	cluster.requests, cluster.allocs_per_req    op_ref_ratio on
//	                                            sim-archive
//	obs.emit_ms, obs.spans, obs.bytes_per_req   op_ref_ratio and
//	                                            peak_heap_mb on
//	                                            sim-archive; 0 on the
//	                                            plans
//	cluster.p99_ms, cluster.miss_rate           nothing: fixed by the seed
//	trace.overhead_pct                          traced ops vs untraced
//	                                            ops of the same run
//	host.ref_kernel_ms                          nothing: the reference
//	                                            kernel's median wall
//	                                            time, the host's speed
//
// obs.emit_ms is the time inside the span sink's Emit, which a wrapper
// sums over every call; it is written as one aggregate span per op,
// drawn from the start of its cluster.run parent.
//
// # Checks
//
// Outside the timed part of every op: each assignment's total delay is
// recomputed from the raw delay matrix and must match the instance's own
// cost, no edge may carry more load than its capacity, gap.LowerBound may
// not exceed the cost, and every later op on a deployment must reproduce
// the reference op's assignment. For sim-archive the registry may not
// count more finished requests (ok, missed, dropped) than were sent, the
// reference op validates every emitted line as newline-terminated JSON
// and counts one root span per finished request, and later ops must
// reproduce its streams byte for byte (length, lines and CRC) and its
// results. A failed check counts the op as failed and makes the exit
// code 1.
package main
