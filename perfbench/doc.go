// Command perfbench is the repository's benchmark: one process generates
// the load, hosts the stack under test, checks every answer and prints the
// metrics. Run it from the repository root through its wrapper, which builds
// it first:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is the result,
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}; the
// line before it records the environment (Go version, nproc, GOMAXPROCS,
// CPU model, commit and seed). Progress goes to standard error. A failed
// correctness check exits non-zero without printing a result.
//
// # The stack
//
// The stack is built from the constructors the binaries use: a replica from
// serve.NewServer, with rapidserve's defaults (50 ms budget, 16/2 ms
// coalescing, 64 MiB state cache, serial GEMM), serving HTTP/JSON and, over
// binproto.Server on the same engine, the binary protocol; and an
// internal/router in front of it. Each listens on its own loopback TCP port,
// and the process runs with GOMAXPROCS = nproc. The replica serves a small
// RAPID-pro model trained at set-up on a Taobao-like universe (13 user
// dims, 8 item dims, m = 5 topics); every request carries D = 5 history
// items per topic and L = 20 candidates. The universe and the model are
// generated from a fixed seed, so the work per request is the same in every
// run; the workload seed draws the traffic: users, slates, initial-ranker
// scores and arrival times, and for training the trainer's shuffles and
// noise.
//
// # Workloads
//
// The serving workloads are open loops over nproc connections, each driven
// by one goroutine: a request goes out when it is due, or as soon as a
// connection frees up, and is timed from its scheduled send time to its
// decoded answer, so a stalled generator or server shows in the latency.
// Each runs a light phase at a fixed rate lo and a loaded phase at a fixed
// rate hi, both with Poisson arrivals drawn from the seed, then a fixed
// ladder of evenly spaced constant rates ten percent apart for max_rps. The
// light and loaded phases run as six alternating rounds of short blocks, so
// both rates sample the whole run and a slow spell of the shared host
// weighs on both alike. The rates are constants (see routerJSONCold and
// directBinaryWarm), so a parent commit and a change see the same offered
// load.
//
//   - router-json-cold: generator → internal/router → one HTTP/JSON replica.
//     Every request comes from a user the stack has never seen, so the state
//     cache never hits. This is the external-traffic shape: the JSON codec
//     runs twice per request (the router unmarshals the whole body to hash
//     its route key), and the router hop and the full model, preference
//     pass included, do most of the work.
//   - direct-binary-warm: generator → the replica's binproto frontend, no
//     router. Nine requests in ten come from a fixed population of 1000
//     Zipf-popular returning users, each with a fixed history, visited once
//     at set-up; the tenth comes from a new user. The state cache key
//     includes the route key, which hashes the candidate ids, so a returning
//     user keeps the ids of their slate and each request refreshes the
//     candidates' initial-ranker scores; a list of new ids would never hit.
//     The measured hit ratio is about 0.9. This is the fleet-internal session
//     shape: the state cache and binary codec do most of their work and the
//     preference pass is mostly skipped, so the listwise Bi-LSTM and the
//     head dominate scorer time.
//   - train-listwise: RAPID-pro Fit over a fixed set of 32 Taobao-like
//     training lists, eight epochs per Fit, repeated from the same initial
//     weights and trainer seed, Fits with one worker taking turns with Fits
//     with Workers = GOMAXPROCS. The same nn cells and mat kernels run
//     forward and backward on tapes, so a serving-side change to them that
//     slows training shows here.
//
// # End-to-end metrics
//
// Every workload reports every end-to-end metric. For the serving workloads
// an op is a request; train-listwise maps the shared names onto training:
//
//	metric           serving                              train-listwise
//	setup_s          median of 3 set-ups: data, model      median of 9 set-ups: data
//	                 training, listeners, warm-up          and instance generation
//	p50/p95_ms_lo    latency at the lo rate                epoch time, Workers = 1
//	p50/p95_ms_hi    latency at the hi rate                epoch time, Workers = GOMAXPROCS
//	max_rps          achieved rate of the highest ladder   instance-epochs per second
//	                 step with p99 ≤ 50 ms, ≥ 99.9% of     of Fit at Workers = GOMAXPROCS
//	                 requests un-degraded and no growing
//	                 generator backlog
//	cpu_ms_per_op    process CPU per request, hi phase     per instance-epoch, hi phase
//	alloc_kb_per_op  heap allocated per request, hi phase  per instance-epoch, hi phase
//	peak_rss_mb      maximum RSS of the process            same
//
// The tail is the 95th percentile, windowed: each phase is cut, in arrival
// order, into windows of at least 250 requests (100 epochs for training),
// one to a few seconds each, and the median of the windows' 95th
// percentiles is reported, so a slow spell of the machine moves a few
// windows' tails rather than the run's. The light phase of a 36 s run sends
// about 2200 requests, so it has eight windows. For train-listwise the
// median epoch time is the median of the same windows' mean epoch times:
// the host runs a thread at one of two speeds about twice apart, so epoch
// times have two modes, and a plain median falls between them and jumps
// with their shares (see epochWindow). The 99th percentile was
// tried first and rejected: on a shared 2-vCPU virtual machine, stalls of
// the virtual CPU touch one to three percent of requests at the light
// rate, so its run-to-run spread (up to half its median) measured the
// host, not the code. max_rps still applies its p99 limit to each ladder
// step.
//
// A failed request (shed, errored, timed out or degraded) counts as +Inf
// latency. attempted and failed cover the lo and hi phases (training:
// instance-epochs and non-finite instances skipped); fail_ratio, which is 0
// on a healthy stack, is reported with the per-layer metrics.
//
// # Correctness checks
//
// Every serving run checks every answer: an un-degraded answer must rank a
// permutation of its request's candidates in descending score order, with
// scores bitwise equal to a direct core.Model.ScoreBatch of the same
// request (on the warm workload this proves the state cache served no stale
// state); a degraded answer must be the init-score fallback. A seeded sample
// must get identical answers over JSON and binproto. Every Fit must end with
// a finite loss below its first epoch's, drop no optimizer step, and repeat
// the reference Fit's losses bitwise, for one worker or GOMAXPROCS.
//
// # Traced run and per-layer metrics
//
// --trace 1 measures the layers instead. It runs the loaded phase on an
// untraced stack, then the light and loaded phases on a traced one, which
// records in-memory spans at four boundaries from this package's files:
// client (the generator, from due time to decoded answer), router (a
// wrapper around Router.Handler), replica (a wrapper around the replica's
// HTTP handler; binproto.Server owns its connections, so on
// direct-binary-warm a listener wrapper records it from a request's first
// byte read to its answer's write) and score (a pointer-typed wrapper around
// core.Model implementing Scorer, BatchScorer and StateScorer, so the
// coalescer batches and the state cache engages as untraced). Score spans
// join their requests through the requests' init scores, which are fresh
// per request; HTTP spans join through the body hash. Every answered
// request must join a span per layer, nested, and its client span must
// equal the generator's own wait plus the router, replica and score self
// times up to a residual of loopback transfer and HTTP plumbing, bounded in
// median and 99th percentile (residualP50MS, residualP99MS). The spans are
// written to <build dir>/traces/<workload>-seed<n>.jsonl. A seeded sample of
// the recorded requests is then replayed through stage-level functions, and
// the engine's and router's registries are read before and after the
// phases. train-listwise records a span per Fit and per epoch instead and
// requires each Fit's epochs to cover at least 80% of it.
//
// Which end-to-end metric each layer metric should move, on which workload,
// and where no change is predicted. A layer a workload does not exercise
// reads 0 there.
//
//	layer (module)              per-layer metrics                       should move            exercised by / no change on
//	internal/router             router.self_ms, router.route_key_us     p50_ms_lo,             router-json-cold /
//	                            (JSON unmarshal + engine.RouteKey       cpu_ms_per_op          direct-binary-warm
//	                            replayed), router.attempts_per_req,
//	                            router.retries, router.hedges
//	internal/serve (JSON)       serve.self_ms, serve.json_decode_us,    p50_ms_lo,             router-json-cold /
//	                            serve.json_encode_us,                   cpu_ms_per_op,         direct-binary-warm
//	                            serve.json_req_bytes,                   alloc_kb_per_op
//	                            serve.json_resp_bytes
//	internal/serve/binproto     binproto.decode_us, binproto.encode_us, cpu_ms_per_op          direct-binary-warm /
//	                            binproto.req_bytes, binproto.resp_bytes                        router-json-cold
//	internal/engine admission   engine.queue_wait_ms_p50/_p99,          p50_ms_hi, p95_ms_hi,  both serving at hi /
//	and coalescer               engine.coalesce_wait_ms,                max_rps                ≈0 at lo
//	                            engine.batch_size_mean,
//	                            engine.inflight_peak, engine.shed,
//	                            engine.degraded
//	internal/engine state cache engine.state_hit_ratio,                 max_rps,               direct-binary-warm /
//	                            engine.state_entries, engine.state_bytes cpu_ms_per_op         router-json-cold (0 hits)
//	internal/core stages        core.score_us_per_inst,                 p50_ms_lo, max_rps     preference: cold only;
//	                            core.inst_per_call,                                            listwise + head: both
//	                            core.preference_us_per_inst                                    serving, larger share
//	                            (EncodeUserState replayed),                                    on warm
//	                            core.listwise_head_us_per_inst
//	                            (ScoreBatchStates with states),
//	                            core.preference_share,
//	                            core.allocs_per_inst
//	internal/topics (Δ_R)       topics.marginal_us                      p50_ms_lo              both serving /
//	                                                                                           train-listwise
//	internal/nn cells           nn.bilstm_us, nn.lstm_step_us,          p50_ms_lo, max_rps     forward: all;
//	                            nn.tape_nodes_per_inst,                 (train-listwise)       backward: train only
//	                            nn.forward_ms_per_inst,
//	                            nn.backward_ms_per_inst
//	internal/mat kernels        mat.gemm_gate_us, mat.gemm_gflops,      every latency metric,  all workloads
//	                            mat.gemm_bytes_per_call (computed       max_rps
//	                            from shapes, not measured)              (train-listwise)
//	internal/rerank trainer     rerank.epoch_s, rerank.steps,           max_rps                train-listwise /
//	                            rerank.dropped_steps, rerank.loss_final (train-listwise)       serving workloads
//	generator + Go runtime      gen.sent, gen.late_ms_p99,              run validity           all workloads
//	                            runtime.gc_cycles_per_1k_op,
//	                            runtime.gc_pause_ms,
//	                            runtime.goroutines_peak,
//	                            trace.overhead_ratio (traced over
//	                            untraced p50_ms_hi), trace.residual_ms_p50,
//	                            fail_ratio
//
// engine.coalesce_wait_ms is the median gap from replica start to score
// start, less the replayed request decode time and the mean queue wait.
// engine.queue_wait percentiles interpolate inside the engine histogram's
// buckets, so values below its first bound are coarse.
//
// The same-run ratios are per-layer metrics too, taken within one run so a
// slower machine does not read as a regression, and not gated:
// ratio.warm_over_cold_score (ScoreBatch time over ScoreBatchStates time
// with states supplied), ratio.bin_over_json_codec (JSON decode + encode
// time over binproto's), ratio.batch16_over_batch1_inst (per-instance time
// at batch 1 over batch 16) and ratio.par_over_serial_gemm256 (serial over
// parallel 256² GEMM time; 0 when GOMAXPROCS is 1). The first three are 0
// on train-listwise, which replays no inference.
package main
