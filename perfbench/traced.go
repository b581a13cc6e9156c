package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rerank"
)

// Reconciliation bounds of the traced serving run. Every answered request
// of the traced phases must join one span per layer, each layer's span must
// nest inside its caller's, and the client span must equal the generator's
// own wait plus the router, replica and score self times up to a residual —
// the loopback transfers and HTTP plumbing outside every recorded span. The
// residual's median must stay within residualP50MS and its 99th percentile
// within residualP99MS; a missing or misjoined boundary shows as a failed
// join, a broken nesting or a residual the size of a whole layer.
const (
	residualP50MS = 1.0
	residualP99MS = 10.0
	// replaySample is how many recorded requests the stage replays use.
	replaySample = 64
)

// goroutineSampler records the peak goroutine count while it runs.
type goroutineSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int
}

func sampleGoroutines() *goroutineSampler {
	g := &goroutineSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			g.peak = max(g.peak, runtime.NumGoroutine())
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

// finish stops the sampler and returns the peak.
func (g *goroutineSampler) finish() int {
	close(g.stop)
	<-g.done
	return g.peak
}

// snapshot flattens a registry: counters and gauges by name (labelled
// counters summed over their labels), histograms by name.
type snapshot struct {
	vals  map[string]float64
	hists map[string]obs.HistogramSnapshot
}

func takeSnapshot(r *obs.Registry) snapshot {
	s := snapshot{vals: map[string]float64{}, hists: map[string]obs.HistogramSnapshot{}}
	for _, m := range r.Snapshot() {
		v := m.Value
		for _, l := range m.Labeled {
			v += float64(l.Count)
		}
		s.vals[m.Name] = v
		if m.Hist != nil {
			s.hists[m.Name] = *m.Hist
		}
	}
	return s
}

// histDelta is after − before, bucket by bucket.
func histDelta(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: after.Bounds, Counts: append([]int64(nil), after.Counts...), Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i := range before.Counts {
		d.Counts[i] -= before.Counts[i]
	}
	return d
}

// histQuantile interpolates the q-quantile inside its bucket.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		if cum+float64(c) >= rank && c > 0 {
			if i == len(h.Bounds) {
				return lo
			}
			return lo + (h.Bounds[i]-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// joined is one answered request with its spans.
type joined struct {
	c                   *sample
	router, replica     *span
	score               *span
	routerSelf, repSelf float64 // ms
	residual            float64 // ms
}

// joinSpans joins every answered request of the phases to its spans and
// checks the reconciliation.
func joinSpans(r *servingRun, phases []*phase, spans []span) ([]joined, error) {
	byKey := map[string]map[uint64]*span{layerRouter: {}, layerReplica: {}}
	byInit := map[uint64]*span{}
	for i := range spans {
		s := &spans[i]
		switch s.Layer {
		case layerRouter, layerReplica:
			byKey[s.Layer][s.Key] = s
		case layerScore:
			for _, k := range s.Keys {
				byInit[k] = s
			}
		}
	}
	var out []joined
	for _, p := range phases {
		for k := range p.s {
			c := &p.s[k]
			if c.kind != outOK {
				continue
			}
			j := joined{c: c, replica: byKey[layerReplica][c.key]}
			j.score = byInit[joinKey(r.st.corpus.profiles[p.draws[k].profile].initScores(p.draws[k].fresh))]
			outer := j.replica
			if !r.w.binary {
				j.router = byKey[layerRouter][c.key]
				outer = j.router
			}
			if j.replica == nil || j.score == nil || outer == nil {
				return nil, fmt.Errorf("trace: request %d has no %s span", c.idx, missingLayer(j, r.w.binary))
			}
			if !within(j.score, j.replica) || (j.router != nil && !within(j.replica, j.router)) || outer.Start < c.send || outer.End > c.resp {
				return nil, fmt.Errorf("trace: request %d: spans do not nest (client %d–%d)", c.idx, c.send, c.resp)
			}
			j.repSelf = float64(j.replica.End-j.replica.Start-(j.score.End-j.score.Start)) / 1e6
			if j.router != nil {
				j.routerSelf = float64(j.router.End-j.router.Start-(j.replica.End-j.replica.Start)) / 1e6
			}
			genWait := float64(c.send-c.due+c.done-c.resp) / 1e6
			sum := genWait + j.routerSelf + j.repSelf + float64(j.score.End-j.score.Start)/1e6
			j.residual = float64(c.done-c.due)/1e6 - sum
			out = append(out, j)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trace: no answered request to join")
	}
	res := make([]float64, len(out))
	for i := range out {
		res[i] = out[i].residual
	}
	if p50, p99 := quantile(res, 0.5), quantile(res, 0.99); p50 > residualP50MS || p99 > residualP99MS {
		return nil, fmt.Errorf("trace: client spans exceed the sum of layer self times by p50 %.3f ms / p99 %.3f ms (bounds %.1f / %.1f ms)",
			p50, p99, residualP50MS, residualP99MS)
	}
	return out, nil
}

func within(in, out *span) bool { return in.Start >= out.Start && in.End <= out.End }

func missingLayer(j joined, binary bool) string {
	switch {
	case !binary && j.router == nil:
		return layerRouter
	case j.replica == nil:
		return layerReplica
	default:
		return layerScore
	}
}

// traceServing is the traced serving run. It first runs the loaded phase on
// an untraced stack, the baseline of trace.overhead_ratio; then it builds a
// traced stack, runs the light and loaded phases with every boundary
// recorded, checks and reconciles them, replays a sample of the recorded
// requests through the stage-level functions, and writes the spans out.
func traceServing(w *servingWorkload, seed int64, secs int, out string, env envRecord) (*result, error) {
	base, err := startServing(w, seed, nil)
	if err != nil {
		return nil, err
	}
	untraced := base.runPhase("hi-untraced", w.hi, secondsShare(secs, hiShare), false).stats()
	err = base.check()
	base.close()
	if err != nil {
		return nil, err
	}

	tr := &tracer{}
	r, err := startServing(w, seed, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	eng0, rt0 := takeSnapshot(r.st.srv.Registry()), takeSnapshot(r.st.rt.Registry())
	gs := sampleGoroutines()
	lo := r.runPhase("lo", w.lo, secondsShare(secs, loShare), false)
	hi := r.runPhase("hi", w.hi, secondsShare(secs, hiShare), false)
	peak := gs.finish()
	spans := tr.take()
	eng, rt := takeSnapshot(r.st.srv.Registry()), takeSnapshot(r.st.rt.Registry())
	if err := r.check(); err != nil {
		return nil, err
	}
	js, err := joinSpans(r, []*phase{lo, hi}, spans)
	if err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	los, his := lo.stats(), hi.stats()
	sent, failed := los.sent+his.sent, los.failed+his.failed
	vals["gen.sent"] = float64(sent)
	vals["gen.late_ms_p99"] = his.lateP99
	vals["fail_ratio"] = float64(failed) / float64(sent)
	vals["trace.overhead_ratio"] = his.p50 / untraced.p50
	vals["runtime.gc_cycles_per_1k_op"] = float64(hi.gcs) / float64(his.sent) * 1000
	vals["runtime.gc_pause_ms"] = float64(hi.gcPauseNS) / 1e6
	vals["runtime.goroutines_peak"] = float64(peak)

	var routerSelf, repSelf, residual, scoreLead []float64
	for _, j := range js {
		routerSelf = append(routerSelf, j.routerSelf)
		repSelf = append(repSelf, j.repSelf)
		residual = append(residual, j.residual)
		scoreLead = append(scoreLead, float64(j.score.Start-j.replica.Start)/1e6)
	}
	if !w.binary {
		vals["router.self_ms"] = quantile(routerSelf, 0.5)
		reqs := rt.vals["rapid_router_requests_total"] - rt0.vals["rapid_router_requests_total"]
		vals["router.attempts_per_req"] = (rt.vals["rapid_router_attempts_total"] - rt0.vals["rapid_router_attempts_total"]) / reqs
		vals["router.retries"] = rt.vals["rapid_router_retries_total"] - rt0.vals["rapid_router_retries_total"]
		vals["router.hedges"] = rt.vals["rapid_router_hedges_total"] - rt0.vals["rapid_router_hedges_total"]
	}
	vals["serve.self_ms"] = quantile(repSelf, 0.5)
	vals["trace.residual_ms_p50"] = quantile(residual, 0.5)

	qw := histDelta(eng.hists["rapid_queue_wait_seconds"], eng0.hists["rapid_queue_wait_seconds"])
	vals["engine.queue_wait_ms_p50"] = histQuantile(qw, 0.5) * 1e3
	vals["engine.queue_wait_ms_p99"] = histQuantile(qw, 0.99) * 1e3
	bs := histDelta(eng.hists["rapid_batch_size"], eng0.hists["rapid_batch_size"])
	if bs.Count > 0 {
		vals["engine.batch_size_mean"] = bs.Sum / float64(bs.Count)
	}
	vals["engine.shed"] = eng.vals["rapid_shed_total"] - eng0.vals["rapid_shed_total"]
	vals["engine.degraded"] = eng.vals["rapid_degraded_total"] - eng0.vals["rapid_degraded_total"]
	hits := eng.vals["rapid_state_cache_hits_total"] - eng0.vals["rapid_state_cache_hits_total"]
	misses := eng.vals["rapid_state_cache_misses_total"] - eng0.vals["rapid_state_cache_misses_total"]
	if hits+misses > 0 {
		vals["engine.state_hit_ratio"] = hits / (hits + misses)
	}
	vals["engine.state_entries"] = eng.vals["rapid_state_cache_entries"]
	vals["engine.state_bytes"] = eng.vals["rapid_state_cache_bytes"]

	// Scorer calls: instances per call, time per instance, in-flight peak.
	sizes := map[int]int{}
	var scoreNS, scoreInsts float64
	var events []int64 // replica span starts (+) and ends (−)
	for i := range spans {
		s := &spans[i]
		switch s.Layer {
		case layerScore:
			sizes[len(s.Keys)]++
			scoreNS += float64(s.End - s.Start)
			scoreInsts += float64(len(s.Keys))
		case layerReplica:
			events = append(events, 2*s.Start+1, 2*s.End)
		}
	}
	calls := 0
	for _, c := range sizes {
		calls += c
	}
	vals["core.score_us_per_inst"] = scoreNS / scoreInsts / 1e3
	vals["core.inst_per_call"] = scoreInsts / float64(calls)
	vals["engine.inflight_peak"] = float64(peakOverlap(events))

	// Stage replays over a seeded sample of the loaded phase's requests.
	rng := rand.New(rand.NewSource(seed))
	var reqs []*engine.Request
	var resps []engine.Response
	var insts []*rerank.Instance
	for _, k := range rng.Perm(len(hi.s))[:min(replaySample, len(hi.s))] {
		if hi.s[k].kind != outOK {
			continue
		}
		req := r.st.corpus.request(hi.draws[k])
		inst, err := engine.ToInstance(r.st.corpus.cfg, req)
		if err != nil {
			return nil, err
		}
		reqs, resps, insts = append(reqs, req), append(resps, hi.resps[k]), append(insts, inst)
	}
	replayCodecs(vals, reqs, resps)
	decode := vals["serve.json_decode_us"]
	if w.binary {
		decode = vals["binproto.decode_us"]
	}
	var queueMeanMS float64
	if qw.Count > 0 {
		queueMeanMS = qw.Sum / float64(qw.Count) * 1e3
	}
	vals["engine.coalesce_wait_ms"] = quantile(scoreLead, 0.5) - decode/1e3 - queueMeanMS
	replayScoring(vals, r.st.model, insts, int(math.Round(vals["core.inst_per_call"])))
	replayCells(vals, r.st.model, insts, false)
	replayGEMM(vals, r.st.corpus.cfg, sizes)

	for _, p := range []*phase{lo, hi} {
		for k := range p.s {
			c := &p.s[k]
			key := joinKey(r.st.corpus.profiles[p.draws[k].profile].initScores(p.draws[k].fresh))
			spans = append(spans, span{Layer: layerClient, Key: key, Start: c.due, End: c.done})
		}
	}
	path, err := writeTrace(out, w.name, seed, env, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans, %d requests joined, written to %s\n", len(spans), len(js), path)
	return layerResult(sent, failed, vals), nil
}

// peakOverlap returns the most intervals open at once; events holds 2·start+1
// for each start and 2·end for each end, so an end sorts before a start at
// the same instant.
func peakOverlap(events []int64) int {
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	open, peak := 0, 0
	for _, e := range events {
		if e%2 != 0 {
			open++
			peak = max(peak, open)
		} else {
			open--
		}
	}
	return peak
}

// traceTrain is the traced train-listwise run: an untraced loaded phase as
// the overhead baseline, then a traced one recording a span per Fit and per
// epoch, reconciled so that each Fit's epochs account for its time, then the
// cell and kernel replays on the trained model.
func traceTrain(seed int64, secs int, out string, env envRecord) (*result, error) {
	cfg, insts, err := trainSetup()
	if err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(0)
	base, err := runTrainPhase(cfg, insts, seed, procs, secondsShare(secs, 0.3), nil, nil)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	gs := sampleGoroutines()
	hi, err := runTrainPhase(cfg, insts, seed, procs, secondsShare(secs, 0.4), base.fits[0], tr)
	peak := gs.finish()
	if err != nil {
		return nil, err
	}
	spans := tr.take()
	if err := reconcileFits(spans); err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	epochs := hi.epochMS()
	vals["rerank.epoch_s"] = quantile(append([]float64(nil), epochs...), 0.5) / 1e3
	last := hi.fits[len(hi.fits)-1]
	vals["rerank.steps"] = float64(last.steps)
	vals["rerank.dropped_steps"] = float64(last.dropped)
	vals["rerank.loss_final"] = last.losses[len(last.losses)-1]
	vals["trace.overhead_ratio"] = quantile(epochs, 0.5) / quantile(base.epochMS(), 0.5)
	ops := float64(hi.instEpochs)
	vals["runtime.gc_cycles_per_1k_op"] = float64(hi.gcs) / ops * 1000
	vals["runtime.gc_pause_ms"] = float64(hi.gcPauseNS) / 1e6
	vals["runtime.goroutines_peak"] = float64(peak)
	vals["fail_ratio"] = float64(hi.skipped()) / ops

	// A training instance runs one tape per instance: every recurrence GEMM
	// has one row.
	replayCells(vals, hi.model, insts, true)
	replayGEMM(vals, cfg, map[int]int{1: 1})

	path, err := writeTrace(out, trainListwise, seed, env, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(spans), path)
	return layerResult(hi.instEpochs, hi.skipped(), vals), nil
}

// Each traced Fit's epoch spans must nest inside it and account for at
// least minEpochShare of its time; the rest is the trainer's set-up.
const minEpochShare = 0.8

func reconcileFits(spans []span) error {
	var fits, epochs []span
	for _, s := range spans {
		switch s.Layer {
		case "fit":
			fits = append(fits, s)
		case "epoch":
			epochs = append(epochs, s)
		}
	}
	for _, f := range fits {
		var inside int64
		n := 0
		for _, e := range epochs {
			if e.Start >= f.Start && e.End <= f.End {
				inside += e.End - e.Start
				n++
			}
		}
		if n != trainEpochs || float64(inside) < minEpochShare*float64(f.End-f.Start) {
			return fmt.Errorf("trace: a fit of %v holds %d epoch spans covering %v", time.Duration(f.End-f.Start), n, time.Duration(inside))
		}
	}
	if len(fits) == 0 {
		return fmt.Errorf("trace: no fit span recorded")
	}
	return nil
}
