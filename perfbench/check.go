package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/engine"
	"repro/internal/rerank"
)

// parityRequests is the seeded sample sent over both JSON and binproto.
const parityRequests = 16

// check verifies every answer of every phase against the model itself and
// then the cross-frontend parity sample. Any failure fails the run.
func (r *servingRun) check() error {
	type job struct {
		p *phase
		k int
	}
	var jobs []job
	for _, p := range r.phases {
		for k := range p.s {
			if kind := p.s[k].kind; kind == outOK || kind == outDegraded {
				jobs = append(jobs, job{p, k})
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			const batch = 16
			var reqs []*engine.Request
			var resps []*engine.Response
			flush := func() {
				if err := r.checkBatch(reqs, resps); err != nil && errs[w] == nil {
					errs[w] = err
				}
				reqs, resps = reqs[:0], resps[:0]
			}
			for j := w; j < len(jobs); j += workers {
				p, k := jobs[j].p, jobs[j].k
				reqs = append(reqs, r.st.corpus.request(p.draws[k]))
				resps = append(resps, &p.resps[k])
				if len(reqs) == batch {
					flush()
				}
			}
			flush()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return r.checkParity()
}

// checkBatch checks a batch of answered requests. An un-degraded answer must
// rank a permutation of the request's candidates in descending score order,
// with every score bitwise equal to a direct core.Model.ScoreBatch of the
// same request; on the warm workload that also proves the state cache served
// no stale state. A degraded answer must be the init-score fallback.
func (r *servingRun) checkBatch(reqs []*engine.Request, resps []*engine.Response) error {
	if len(reqs) == 0 {
		return nil
	}
	insts := make([]*rerank.Instance, len(reqs))
	for i, req := range reqs {
		inst, err := engine.ToInstance(r.st.corpus.cfg, req)
		if err != nil {
			return fmt.Errorf("check: rebuild request: %w", err)
		}
		insts[i] = inst
	}
	want, err := r.st.model.ScoreBatch(context.Background(), insts)
	if err != nil {
		return fmt.Errorf("check: direct ScoreBatch: %w", err)
	}
	for i, resp := range resps {
		if resp.Degraded {
			order, scores := engine.FallbackOrder(insts[i])
			if err := sameRanking(resp, order, scores); err != nil {
				return fmt.Errorf("check: degraded answer is not the init-score order: %w", err)
			}
			continue
		}
		if err := rankedBy(resp, insts[i], want[i]); err != nil {
			return fmt.Errorf("check: %w", err)
		}
	}
	return nil
}

// rankedBy checks that resp ranks inst's candidates by scores, bitwise.
func rankedBy(resp *engine.Response, inst *rerank.Instance, scores []float64) error {
	if len(resp.Ranked) != inst.L() || len(resp.Scores) != inst.L() {
		return fmt.Errorf("answer ranks %d items with %d scores for %d candidates", len(resp.Ranked), len(resp.Scores), inst.L())
	}
	pos := make(map[int]int, inst.L())
	for i, id := range inst.Items {
		pos[id] = i
	}
	seen := make(map[int]bool, inst.L())
	for i, id := range resp.Ranked {
		j, ok := pos[id]
		if !ok || seen[id] {
			return fmt.Errorf("answer is not a permutation of the candidates (id %d at rank %d)", id, i)
		}
		seen[id] = true
		if math.Float64bits(resp.Scores[i]) != math.Float64bits(scores[j]) {
			return fmt.Errorf("score of item %d is %v, direct ScoreBatch gives %v", id, resp.Scores[i], scores[j])
		}
		if i > 0 && resp.Scores[i] > resp.Scores[i-1] {
			return fmt.Errorf("answer is not in descending score order at rank %d", i)
		}
	}
	return nil
}

func sameRanking(resp *engine.Response, order []int, scores []float64) error {
	if len(resp.Ranked) != len(order) || len(resp.Scores) != len(scores) {
		return fmt.Errorf("%d ranked, %d scores; want %d", len(resp.Ranked), len(resp.Scores), len(order))
	}
	for i := range order {
		if resp.Ranked[i] != order[i] || math.Float64bits(resp.Scores[i]) != math.Float64bits(scores[i]) {
			return fmt.Errorf("rank %d: got item %d score %v, want item %d score %v", i, resp.Ranked[i], resp.Scores[i], order[i], scores[i])
		}
	}
	return nil
}

// checkParity sends a seeded sample of requests over JSON (through the
// router on the cold workload, to the replica on the warm one) and over
// binproto, and requires identical, un-degraded answers.
func (r *servingRun) checkParity() error {
	url := r.st.replicaURL
	if !r.w.binary {
		url = r.st.routerURL
	}
	js := newHTTPSender(r.st.corpus, url, false)
	defer js.close()
	bs, err := newBinSender(r.st.corpus, r.st.binAddr)
	if err != nil {
		return err
	}
	defer bs.close()
	ctx := context.Background()
	for i := 0; i < parityRequests; i++ {
		d := r.dr.draw(r.next + i)
		var sj, sb sample
		jr := js.send(ctx, d, &sj)
		br := bs.send(ctx, d, &sb)
		if sj.kind != outOK || sb.kind != outOK {
			return fmt.Errorf("parity: request %d answered with outcome %d over JSON and %d over binproto", i, sj.kind, sb.kind)
		}
		if err := sameRanking(&jr, br.Ranked, br.Scores); err != nil {
			return fmt.Errorf("parity: JSON and binproto answers differ: %w", err)
		}
	}
	r.next += parityRequests
	return nil
}
