package core

import (
	"context"
	"sort"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rerank"
)

// This file implements the batched inference path: ScoreBatch runs B
// instances through one tape pass, stacking the per-step recurrence inputs
// of all instances into single GEMMs. Every operation either acts row-wise
// (dense layers, gates, elementwise ops) or is kept per-instance (self
// attention, which mixes rows), so each instance's row sees exactly the
// arithmetic — in the same order — as the legacy single-instance path.
// Batch output is bitwise identical to Scores; the equivalence suite in
// batch_test.go enforces this for every model variant.

// Score implements engine.Scorer: a context-aware single-instance scoring
// call, equivalent to ScoreBatch with a batch of one.
func (m *Model) Score(ctx context.Context, inst *rerank.Instance) ([]float64, error) {
	out, err := m.ScoreBatch(ctx, []*rerank.Instance{inst})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ScoreBatch implements engine.BatchScorer: it scores B instances in one
// tape pass. Instances may differ in list length and behavior-sequence
// lengths; the recurrences are grouped (by list length) or length-packed
// (topic sequences) so state rows always line up. The context is checked
// between recurrence steps, so cancellation actually stops the work.
func (m *Model) ScoreBatch(ctx context.Context, insts []*rerank.Instance) ([][]float64, error) {
	out, _, err := m.ScoreBatchStates(ctx, insts, nil)
	return out, err
}

// ScoreBatchStates is ScoreBatch with the user-preference prefix factored
// out: states[b], when non-nil and produced by this model, replaces instance
// b's entire preference pass (per-topic LSTMs, self-attention, preference
// MLP) — the repeat-user fast path. Instances whose state is nil (or whose
// states slice is nil/short) are encoded inline, batched together exactly
// as ScoreBatch would.
//
// The second return value holds the state actually used per instance —
// supplied states passed through, freshly encoded ones for the misses — so
// a serving-layer cache can install new entries from the scoring pass it
// already paid for. Scores are bitwise identical with and without supplied
// states: θ̂'s arithmetic is row-private per instance (see EncodeUserState).
func (m *Model) ScoreBatchStates(ctx context.Context, insts []*rerank.Instance, states []*UserState) ([][]float64, []*UserState, error) {
	if len(insts) == 0 {
		return nil, nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	t := m.tape()
	defer m.releaseTape(t)

	relDim := 2 * m.Cfg.Hidden
	headIn := relDim
	if m.Cfg.UseDiversity {
		headIn += m.Cfg.Topics
	}

	// z stacks every instance's fusion input [H_R | Δ_R] row-contiguously:
	// instance b owns rows offs[b]..offs[b+1].
	offs := make([]int, len(insts)+1)
	for b, inst := range insts {
		offs[b+1] = offs[b] + inst.L()
	}
	z := mat.New(offs[len(insts)], headIn)

	if err := m.batchRelevance(ctx, t, insts, z, offs); err != nil {
		return nil, nil, err
	}
	var used []*UserState
	if m.Cfg.UseDiversity {
		// Split the batch into state hits and misses; only the misses run
		// the preference pass, packed together like a plain ScoreBatch of
		// just those instances (per-instance θ̂ is batch-composition
		// independent, so the split is invisible in the output).
		used = make([]*UserState, len(insts))
		var missIdx []int
		var missInsts []*rerank.Instance
		for b := range insts {
			if b < len(states) && states[b].validFor(m) {
				used[b] = states[b]
				continue
			}
			missIdx = append(missIdx, b)
			missInsts = append(missInsts, insts[b])
		}
		if len(missInsts) > 0 {
			theta, err := m.batchPreference(ctx, t, missInsts)
			if err != nil {
				return nil, nil, err
			}
			for k, b := range missIdx {
				used[b] = &UserState{theta: theta[k]}
			}
		}
		// Δ_R in plain floats, preserving the legacy Mul-then-Scale order:
		// s·(θ̂_j · d_ij), never (s·θ̂_j)·d_ij.
		s := float64(m.Cfg.Topics) / 2
		for b, inst := range insts {
			theta := used[b].theta
			d := m.divFn.Marginal(inst.Cover, inst.M)
			for i := 0; i < inst.L(); i++ {
				row := z.Row(offs[b] + i)[relDim:]
				for j := 0; j < m.Cfg.Topics; j++ {
					row[j] = s * (theta[j] * d[i][j])
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// One stacked head pass over all ΣL rows (UCB inference, Eq. 10).
	zn := t.Constant(z)
	var logits *nn.Node
	if m.Cfg.Output == Deterministic {
		logits = m.headDet.Forward(t, zn)
	} else {
		logits = t.Add(m.headMu.Forward(t, zn), t.Softplus(m.headSigma.Forward(t, zn)))
	}
	out := make([][]float64, len(insts))
	for b := range insts {
		rows := logits.Value.Data[offs[b]:offs[b+1]] // column vector: 1 col per row
		scores := make([]float64, len(rows))
		for i, v := range rows {
			scores[i] = mat.Sigmoid(v)
		}
		out[b] = scores
	}
	return out, used, nil
}

// tape borrows a reusable tape from the model's pool; releaseTape resets it
// (recycling its value buffers) and returns it. Callers must copy results
// out of node values before releasing.
func (m *Model) tape() *nn.Tape {
	if v := m.tapes.Get(); v != nil {
		return v.(*nn.Tape)
	}
	return nn.NewTapeCap(2 * m.TapeCapHint())
}

func (m *Model) releaseTape(t *nn.Tape) {
	t.Reset()
	m.tapes.Put(t)
}

// batchRelevance fills z[:, :2·hidden] with each instance's listwise
// relevance representation H_R. For the Bi-LSTM encoder, instances are
// grouped by list length and each group advances both directions in
// lockstep with G-row states, so every step's gate projection is one
// G-row GEMM instead of G single-row ones. The transformer encoder mixes
// rows across the list (self-attention), so it stays per-instance.
func (m *Model) batchRelevance(ctx context.Context, t *nn.Tape, insts []*rerank.Instance, z *mat.Matrix, offs []int) error {
	relDim := 2 * m.Cfg.Hidden
	if m.Cfg.Encoder == TransformerEncoder {
		for b, inst := range insts {
			if err := ctx.Err(); err != nil {
				return err
			}
			h := m.relevance(t, t.Constant(inst.ListFeatures()))
			for i := 0; i < inst.L(); i++ {
				copy(z.Row(offs[b] + i)[:relDim], h.Value.Row(i))
			}
		}
		return nil
	}
	groups := make(map[int][]int)
	lens := make([]int, 0, 4)
	for b, inst := range insts {
		l := inst.L()
		if _, ok := groups[l]; !ok {
			lens = append(lens, l)
		}
		groups[l] = append(groups[l], b)
	}
	sort.Ints(lens)
	for _, l := range lens {
		if err := m.batchBiLSTM(ctx, t, insts, groups[l], l, z, offs); err != nil {
			return err
		}
	}
	return nil
}

// batchBiLSTM runs the Bi-LSTM over a group of instances sharing list
// length L. State row g belongs to instance idxs[g]; per-step hidden rows
// are copied straight into the group's z rows (forward halves first, then
// backward), reproducing ConcatCols(fwd[i], bwd[i]) per instance.
func (m *Model) batchBiLSTM(ctx context.Context, t *nn.Tape, insts []*rerank.Instance, idxs []int, l int, z *mat.Matrix, offs []int) error {
	g := len(idxs)
	hid := m.Cfg.Hidden
	feats := make([]*mat.Matrix, g)
	for k, b := range idxs {
		feats[k] = insts[b].ListFeatures()
	}
	featDim := feats[0].Cols
	xs := make([]*nn.Node, l)
	for i := 0; i < l; i++ {
		xi := mat.New(g, featDim)
		for k := range idxs {
			copy(xi.Row(k), feats[k].Row(i))
		}
		xs[i] = t.Constant(xi)
	}
	fh, fc := m.bilstm.Fwd.InitStateRows(t, g)
	for i := 0; i < l; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		fh, fc = m.bilstm.Fwd.Step(t, xs[i], fh, fc)
		for k, b := range idxs {
			copy(z.Row(offs[b] + i)[:hid], fh.Value.Row(k))
		}
	}
	bh, bc := m.bilstm.Bwd.InitStateRows(t, g)
	for i := l - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		bh, bc = m.bilstm.Bwd.Step(t, xs[i], bh, bc)
		for k, b := range idxs {
			copy(z.Row(offs[b] + i)[hid:2*hid], bh.Value.Row(k))
		}
	}
	return nil
}

// batchPreference computes θ̂ for every instance (Eqs. 2–3), returning one
// m-vector per instance. The per-topic recurrences run length-packed
// across the whole batch; self-attention stays per-instance (it mixes topic
// rows within one user); the preference MLP runs once over the stacked
// (B·m)-row attended representations.
func (m *Model) batchPreference(ctx context.Context, t *nn.Tape, insts []*rerank.Instance) ([][]float64, error) {
	b := len(insts)
	topicsN, hid := m.Cfg.Topics, m.Cfg.Hidden
	sums := make([]*mat.Matrix, b) // per-instance m×hidden topic summaries
	for i := range sums {
		sums[i] = mat.New(topicsN, hid)
	}
	switch m.Cfg.Agg {
	case MeanAgg:
		for i, inst := range insts {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for j := 0; j < topicsN; j++ {
				seq := inst.TopicSeqFeatures(j, m.Cfg.D)
				if seq.Rows == 0 {
					continue // zero summary, matching the legacy zero constant
				}
				mean := t.MeanRows(m.meanEmbed.Forward(t, t.Constant(seq)))
				copy(sums[i].Row(j), mean.Value.Data)
			}
		}
	case LSTMAgg:
		for j := 0; j < topicsN; j++ {
			if err := m.batchTopicLSTM(ctx, t, insts, j, sums); err != nil {
				return nil, err
			}
		}
	}
	att := make([]*nn.Node, b)
	for i := range insts {
		att[i] = nn.SelfAttention(t, t.Constant(sums[i])) // Eq. (2), per instance
	}
	pref := m.prefMLP.Forward(t, t.ConcatRows(att...)) // (B·m)×1, Eq. (3)
	theta := make([][]float64, b)
	for i := range theta {
		theta[i] = append([]float64(nil), pref.Value.Data[i*topicsN:(i+1)*topicsN]...)
	}
	return theta, nil
}

// batchTopicLSTM advances topic j's behavior recurrence for all instances
// at once. Sequences are sorted by descending length so each step operates
// on a packed prefix of the state: rows whose sequence has ended keep their
// final state untouched (an untouched zero row reproduces LSTM.Last's
// zero-state result for an empty sequence).
func (m *Model) batchTopicLSTM(ctx context.Context, t *nn.Tape, insts []*rerank.Instance, j int, sums []*mat.Matrix) error {
	g := len(insts)
	type seqOf struct {
		b int
		f *mat.Matrix
	}
	seqs := make([]seqOf, g)
	for b, inst := range insts {
		seqs[b] = seqOf{b, inst.TopicSeqFeatures(j, m.Cfg.D)}
	}
	sort.SliceStable(seqs, func(a, c int) bool { return seqs[a].f.Rows > seqs[c].f.Rows })
	cell := m.topicLSTM.Cell
	h, c := cell.InitStateRows(t, g)
	seqDim := m.Cfg.UserDim + m.Cfg.ItemDim
	for step := 0; step < seqs[0].f.Rows; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := 0
		for k < g && seqs[k].f.Rows > step {
			k++
		}
		x := mat.New(k, seqDim)
		for r := 0; r < k; r++ {
			copy(x.Row(r), seqs[r].f.Row(step))
		}
		if k == g {
			h, c = cell.Step(t, t.Constant(x), h, c)
		} else {
			hNew, cNew := cell.Step(t, t.Constant(x), t.SliceRows(h, 0, k), t.SliceRows(c, 0, k))
			h = t.ConcatRows(hNew, t.SliceRows(h, k, g))
			c = t.ConcatRows(cNew, t.SliceRows(c, k, g))
		}
	}
	for r, s := range seqs {
		copy(sums[s.b].Row(j), h.Value.Row(r))
	}
	return nil
}
