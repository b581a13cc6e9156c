package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rerank"
	"repro/internal/serve/binproto"
	"repro/internal/topics"
)

// perLayer lists every per-layer metric with its unit, in output order. A
// traced run prints all of them; a layer its workload does not exercise
// reads 0 (router and JSON on direct-binary-warm, the serving layers and
// the replayed inference stages on train-listwise, training on the serving
// workloads).
var perLayer = []struct{ name, unit string }{
	{"router.self_ms", "ms"},
	{"router.route_key_us", "us"},
	{"router.attempts_per_req", "count"},
	{"router.retries", "count"},
	{"router.hedges", "count"},
	{"serve.self_ms", "ms"},
	{"serve.json_decode_us", "us"},
	{"serve.json_encode_us", "us"},
	{"serve.json_req_bytes", "B"},
	{"serve.json_resp_bytes", "B"},
	{"binproto.decode_us", "us"},
	{"binproto.encode_us", "us"},
	{"binproto.req_bytes", "B"},
	{"binproto.resp_bytes", "B"},
	{"engine.queue_wait_ms_p50", "ms"},
	{"engine.queue_wait_ms_p99", "ms"},
	{"engine.coalesce_wait_ms", "ms"},
	{"engine.batch_size_mean", "count"},
	{"engine.inflight_peak", "count"},
	{"engine.shed", "count"},
	{"engine.degraded", "count"},
	{"engine.state_hit_ratio", "ratio"},
	{"engine.state_entries", "count"},
	{"engine.state_bytes", "B"},
	{"core.score_us_per_inst", "us"},
	{"core.inst_per_call", "count"},
	{"core.preference_us_per_inst", "us"},
	{"core.listwise_head_us_per_inst", "us"},
	{"core.preference_share", "ratio"},
	{"core.allocs_per_inst", "count"},
	{"topics.marginal_us", "us"},
	{"nn.bilstm_us", "us"},
	{"nn.lstm_step_us", "us"},
	{"nn.tape_nodes_per_inst", "count"},
	{"nn.forward_ms_per_inst", "ms"},
	{"nn.backward_ms_per_inst", "ms"},
	{"mat.gemm_gate_us", "us"},
	{"mat.gemm_gflops", "GFLOP/s"},
	{"mat.gemm_bytes_per_call", "B"},
	{"rerank.epoch_s", "s"},
	{"rerank.steps", "count"},
	{"rerank.dropped_steps", "count"},
	{"rerank.loss_final", "nat"},
	{"gen.sent", "count"},
	{"gen.late_ms_p99", "ms"},
	{"runtime.gc_cycles_per_1k_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.goroutines_peak", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.residual_ms_p50", "ms"},
	{"fail_ratio", "ratio"},
	{"ratio.warm_over_cold_score", "x"},
	{"ratio.bin_over_json_codec", "x"},
	{"ratio.batch16_over_batch1_inst", "x"},
	{"ratio.par_over_serial_gemm256", "x"},
}

// layerResult builds a traced run's result: every per-layer metric, 0
// unless vals supplies it.
func layerResult(attempted, failed int, vals map[string]float64) *result {
	res := &result{Correct: true, Attempted: attempted, Failed: failed}
	for _, m := range perLayer {
		res.add(m.name, vals[m.name], m.unit)
	}
	return res
}

// replayMin is how long each replayed stage is repeated; per-call times are
// the total over the repetitions.
const replayMin = 100 * time.Millisecond

// perCall times f, repeated for at least replayMin, and returns seconds per
// call.
func perCall(f func()) float64 {
	f() // warm
	n := 0
	start := time.Now()
	for n < 3 || time.Since(start) < replayMin {
		f()
		n++
	}
	return time.Since(start).Seconds() / float64(n)
}

// replayCodecs replays the recorded requests and answers through both
// frontends' codecs and the router's route-key derivation.
func replayCodecs(vals map[string]float64, reqs []*engine.Request, resps []engine.Response) {
	bodies := make([][]byte, len(reqs))
	payloads := make([][]byte, len(reqs))
	var jreq, jresp, breq, bresp float64
	for i, req := range reqs {
		bodies[i], _ = json.Marshal(req)
		payloads[i] = binproto.AppendRequest(nil, req)
		rb, _ := json.Marshal(&resps[i])
		jreq += float64(len(bodies[i]))
		jresp += float64(len(rb) + 1) // json.Encoder appends a newline
		breq += float64(len(payloads[i]))
		bresp += float64(len(binproto.AppendResponse(nil, &resps[i])))
	}
	n := float64(len(reqs))
	vals["serve.json_req_bytes"] = jreq / n
	vals["serve.json_resp_bytes"] = jresp / n
	vals["binproto.req_bytes"] = breq / n
	vals["binproto.resp_bytes"] = bresp / n
	us := func(f func(i int)) float64 {
		return perCall(func() {
			for i := range reqs {
				f(i)
			}
		}) / n * 1e6
	}
	vals["router.route_key_us"] = us(func(i int) {
		var rr engine.Request
		if json.Unmarshal(bodies[i], &rr) == nil {
			engine.RouteKey(&rr)
		}
	})
	vals["serve.json_decode_us"] = us(func(i int) {
		var rr engine.Request
		json.NewDecoder(bytes.NewReader(bodies[i])).Decode(&rr)
	})
	vals["serve.json_encode_us"] = us(func(i int) { json.NewEncoder(io.Discard).Encode(&resps[i]) })
	vals["binproto.decode_us"] = us(func(i int) { binproto.DecodeRequest(payloads[i]) })
	var buf []byte
	vals["binproto.encode_us"] = us(func(i int) { buf = binproto.AppendResponse(buf[:0], &resps[i]) })
	vals["ratio.bin_over_json_codec"] = (vals["serve.json_decode_us"] + vals["serve.json_encode_us"]) /
		(vals["binproto.decode_us"] + vals["binproto.encode_us"])
}

// replayScoring splits scorer time into RAPID's stages by replaying sampled
// instances, in batches of the recorded mean batch size, through the
// model's stage-level public functions.
func replayScoring(vals map[string]float64, m *core.Model, insts []*rerank.Instance, batch int) {
	ctx := context.Background()
	batch = max(1, min(batch, len(insts)))
	n := float64(len(insts))
	states := make([]*core.UserState, len(insts))
	pref := perCall(func() {
		for i, inst := range insts {
			states[i], _ = m.EncodeUserState(ctx, inst)
		}
	}) / n
	batches := func(f func(lo, hi int)) func() {
		return func() {
			for lo := 0; lo < len(insts); lo += batch {
				f(lo, min(lo+batch, len(insts)))
			}
		}
	}
	warm := perCall(batches(func(lo, hi int) { m.ScoreBatchStates(ctx, insts[lo:hi], states[lo:hi]) })) / n
	cold := perCall(batches(func(lo, hi int) { m.ScoreBatch(ctx, insts[lo:hi]) })) / n
	vals["core.preference_us_per_inst"] = pref * 1e6
	vals["core.listwise_head_us_per_inst"] = warm * 1e6
	vals["core.preference_share"] = pref / (pref + warm)
	vals["ratio.warm_over_cold_score"] = cold / warm

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batches(func(lo, hi int) { m.ScoreBatch(ctx, insts[lo:hi]) })()
	runtime.ReadMemStats(&after)
	vals["core.allocs_per_inst"] = float64(after.Mallocs-before.Mallocs) / n

	one := perCall(func() { m.ScoreBatch(ctx, insts[:1]) })
	k := min(16, len(insts))
	sixteen := perCall(func() { m.ScoreBatch(ctx, insts[:k]) }) / float64(k)
	vals["ratio.batch16_over_batch1_inst"] = one / sixteen
}

// replayCells times RAPID's building blocks at the listwise input shape: the
// diversifier's marginal coverage, the Bi-LSTM and one LSTM step, and one
// model forward (and, for training, backward) per instance.
func replayCells(vals map[string]float64, m *core.Model, insts []*rerank.Instance, train bool) {
	cfg := m.Cfg
	n := float64(len(insts))
	divFn, err := topics.DiversityFunctionByName(cfg.DiversityFn)
	if err == nil {
		vals["topics.marginal_us"] = perCall(func() {
			for _, inst := range insts {
				divFn.Marginal(inst.Cover, inst.M)
			}
		}) / n * 1e6
	}

	featDim := cfg.UserDim + cfg.ItemDim + cfg.Topics + 1
	rng := rand.New(rand.NewSource(1))
	bl := nn.NewBiLSTM(nn.NewParamSet(), "bench", featDim, cfg.Hidden, rng)
	seq := mat.New(listLen, featDim)
	for i := range seq.Data {
		seq.Data[i] = rng.NormFloat64()
	}
	t := nn.NewTape()
	vals["nn.bilstm_us"] = perCall(func() {
		t.Reset()
		bl.Forward(t, t.Constant(seq))
	}) * 1e6
	x := mat.New(1, featDim)
	copy(x.Data, seq.Data)
	vals["nn.lstm_step_us"] = perCall(func() {
		t.Reset()
		h, c := bl.Fwd.InitState(t)
		bl.Fwd.Step(t, t.Constant(x), h, c)
	}) * 1e6

	nodes := 0
	for _, inst := range insts {
		t.Reset()
		m.Logits(t, inst, false)
		nodes += t.NumNodes()
	}
	vals["nn.tape_nodes_per_inst"] = float64(nodes) / n
	if !train {
		vals["nn.forward_ms_per_inst"] = perCall(func() {
			for _, inst := range insts {
				t.Reset()
				m.Logits(t, inst, false)
			}
		}) / n * 1e3
		return
	}
	// Training forward samples ξ, drawn on the trainer goroutine first.
	for _, inst := range insts {
		m.PrepareInstance(inst)
	}
	fwd := perCall(func() {
		for _, inst := range insts {
			t.Reset()
			t.SigmoidBCE(m.Logits(t, inst, true), inst.Labels)
		}
	})
	both := perCall(func() {
		for _, inst := range insts {
			t.Reset()
			t.Backward(t.SigmoidBCE(m.Logits(t, inst, true), inst.Labels))
		}
	})
	vals["nn.forward_ms_per_inst"] = fwd / n * 1e3
	vals["nn.backward_ms_per_inst"] = (both - fwd) / n * 1e3
}

// replayGEMM times the recurrence gate GEMM, [B × (in+hidden)]·[(in+hidden)
// × 4·hidden], at the recorded batch sizes (weights: how many scoring calls
// had each size), and the 256² GEMM serial against parallel.
func replayGEMM(vals map[string]float64, cfg core.Config, sizes map[int]int) {
	k := cfg.UserDim + cfg.ItemDim + cfg.Topics + 1 + cfg.Hidden
	nCols := 4 * cfg.Hidden
	var calls, us, flops, bytesMoved float64
	for b, cnt := range sizes {
		a, w, out := mat.New(b, k), mat.New(k, nCols), mat.New(b, nCols)
		for i := range a.Data {
			a.Data[i] = float64(i%7) - 3
		}
		for i := range w.Data {
			w.Data[i] = float64(i%5) - 2
		}
		sec := perCall(func() {
			for r := 0; r < 100; r++ {
				mat.MatMulInto(out, a, w)
			}
		}) / 100
		c := float64(cnt)
		calls += c
		us += c * sec * 1e6
		flops += c * 2 * float64(b*k*nCols)
		// Computed from the shapes, not measured: A, B and the output once.
		bytesMoved += c * 8 * float64(b*k+k*nCols+b*nCols)
	}
	if calls > 0 {
		vals["mat.gemm_gate_us"] = us / calls
		vals["mat.gemm_gflops"] = flops / (us * 1e3)
		vals["mat.gemm_bytes_per_call"] = bytesMoved / calls
	}
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		a, b, out := mat.New(256, 256), mat.New(256, 256), mat.New(256, 256)
		for i := range a.Data {
			a.Data[i], b.Data[i] = float64(i%11)-5, float64(i%13)-6
		}
		prev := mat.Workers()
		mat.SetWorkers(1)
		serial := perCall(func() { mat.MatMulInto(out, a, b) })
		mat.SetWorkers(procs)
		par := perCall(func() { mat.MatMulInto(out, a, b) })
		mat.SetWorkers(prev)
		vals["ratio.par_over_serial_gemm256"] = serial / par
	}
}
