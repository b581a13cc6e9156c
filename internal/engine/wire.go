package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rerank"
)

// MaxListLength caps the number of candidates in one re-rank request.
// Re-ranking operates on the final stage's short list (the paper's lists are
// tens of items); a four-digit list is a malformed or hostile request, and
// the Bi-LSTM's O(L) step chain would blow the budget anyway.
const MaxListLength = 1024

// ReadyStatus is the JSON body of GET /readyz. The status code alone answers
// readiness — 200 while accepting traffic, 503 once drain has begun — so
// probes that only check the code work; the body carries what a fleet
// router additionally needs from one probe: the pinned model
// version (its skew detector flags mixed-version windows during rollouts)
// and the draining flag (eject without penalizing the replica's breaker).
type ReadyStatus struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining,omitempty"`
	// ModelVersion is the active registry version label; empty (and omitted)
	// in the single-model deployment shape.
	ModelVersion string `json:"model_version,omitempty"`
}

// ShedReasonHeader carries the shed reason (a ShedError.Reason) on 429/503
// shed responses so a router can distinguish backpressure from drain without
// parsing the body.
const ShedReasonHeader = "X-Shed-Reason"

// Request is one re-rank request, transport-neutral: the HTTP frontend
// decodes it from JSON, the binary frontend from length-prefixed frames, and
// embedded callers build it directly. It must carry everything the model
// consumes (features, topic coverage, per-topic behavior sequences),
// mirroring rerank.Instance.
type Request struct {
	UserFeatures   []float64   `json:"user_features"`
	Items          []Item      `json:"items"`
	TopicSequences [][]SeqItem `json:"topic_sequences"`
	// Tenant names the resident scorer that should serve this request; empty
	// selects the default tenant (the engine's own provider), which keeps
	// every pre-multi-tenant client working unchanged.
	Tenant string `json:"tenant,omitempty"`
}

// Item is one candidate of the initial list.
type Item struct {
	ID        int       `json:"id"`
	Features  []float64 `json:"features"`
	Cover     []float64 `json:"cover"`
	InitScore float64   `json:"init_score"`
}

// SeqItem is one entry of a per-topic behavior sequence.
type SeqItem struct {
	Features []float64 `json:"features"`
}

// Response is one re-rank answer. Degraded marks the graceful-degradation
// contract: the engine could not produce model scores inside the request
// budget (deadline overrun, scoring error or recovered scoring panic) and
// fell back to the initial-ranker ordering instead of failing the request.
// DegradedReason says why ("deadline", "error", "panic").
type Response struct {
	Ranked         []int     `json:"ranked"`
	Scores         []float64 `json:"scores"` // aligned with Ranked
	Degraded       bool      `json:"degraded,omitempty"`
	DegradedReason string    `json:"degraded_reason,omitempty"`
	// ModelVersion labels the registry version that served the request
	// (empty in the single-model deployment shape); Canary marks requests
	// routed to a candidate under canary evaluation.
	ModelVersion string  `json:"model_version,omitempty"`
	Canary       bool    `json:"canary,omitempty"`
	LatencyMS    float64 `json:"latency_ms"`
	// RequestID uniquely labels this served response; clients echo it in
	// feedback events so impressions and clicks join deterministically. Per
	// item inside a batch. Empty only on per-item validation errors (Error
	// set), which served no ranking.
	RequestID string `json:"request_id,omitempty"`
	// Error reports a per-item validation failure inside a batch (the
	// single-item path returns a typed error instead). An item with Error
	// set has no ranking.
	Error string `json:"error,omitempty"`
}

// ToInstance validates the wire request against the model geometry and
// assembles a rerank.Instance.
func ToInstance(cfg core.Config, req *Request) (*rerank.Instance, error) {
	if len(req.UserFeatures) != cfg.UserDim {
		return nil, fmt.Errorf("user_features has %d dims, model wants %d", len(req.UserFeatures), cfg.UserDim)
	}
	if len(req.Items) == 0 {
		return nil, fmt.Errorf("no items to re-rank")
	}
	if len(req.Items) > MaxListLength {
		return nil, fmt.Errorf("request has %d items, limit is %d", len(req.Items), MaxListLength)
	}
	if len(req.TopicSequences) != cfg.Topics {
		return nil, fmt.Errorf("topic_sequences has %d topics, model wants %d", len(req.TopicSequences), cfg.Topics)
	}
	items := make([]int, len(req.Items))
	scores := make([]float64, len(req.Items))
	cover := make([][]float64, len(req.Items))
	feats := make(map[int][]float64, len(req.Items))
	coverByID := make(map[int][]float64, len(req.Items))
	for i, it := range req.Items {
		if len(it.Features) != cfg.ItemDim {
			return nil, fmt.Errorf("item %d has %d feature dims, model wants %d", it.ID, len(it.Features), cfg.ItemDim)
		}
		if len(it.Cover) != cfg.Topics {
			return nil, fmt.Errorf("item %d has %d cover dims, model wants %d", it.ID, len(it.Cover), cfg.Topics)
		}
		items[i] = it.ID
		scores[i] = it.InitScore
		cover[i] = it.Cover
		feats[it.ID] = it.Features
		coverByID[it.ID] = it.Cover
	}
	// Behavior-sequence items are addressed with synthetic negative IDs so
	// they cannot collide with list items.
	seqs := make([][]int, cfg.Topics)
	nextID := -1
	for j, seq := range req.TopicSequences {
		for _, si := range seq {
			if len(si.Features) != cfg.ItemDim {
				return nil, fmt.Errorf("topic %d sequence item has %d feature dims, model wants %d", j, len(si.Features), cfg.ItemDim)
			}
			feats[nextID] = si.Features
			seqs[j] = append(seqs[j], nextID)
			nextID--
		}
		if len(seqs[j]) > rerank.TopicSeqCap {
			seqs[j] = seqs[j][len(seqs[j])-rerank.TopicSeqCap:]
		}
	}
	// Unknown-id coverage lookups (historical items outside the list) share
	// one zero vector; callers treat coverage as read-only.
	zeroCover := make([]float64, cfg.Topics)
	return &rerank.Instance{
		UserFeat:   req.UserFeatures,
		Items:      items,
		InitScores: scores,
		Cover:      cover,
		TopicSeqs:  seqs,
		M:          cfg.Topics,
		ItemFeat:   func(id int) []float64 { return feats[id] },
		CoverOf: func(id int) []float64 {
			if c, ok := coverByID[id]; ok {
				return c
			}
			return zeroCover
		},
	}, nil
}

// FallbackOrder is the graceful-degradation ranking: the initial ranker's
// ordering by its own scores (stable on ties), exactly what the upstream
// stage would have shown had the re-ranker not existed.
func FallbackOrder(inst *rerank.Instance) ([]int, []float64) {
	order := rerank.OrderByScores(inst.Items, inst.InitScores)
	pos := make(map[int]int, len(inst.Items))
	for i, id := range inst.Items {
		pos[id] = i
	}
	ordered := make([]float64, len(order))
	for i, id := range order {
		ordered[i] = inst.InitScores[pos[id]]
	}
	return order, ordered
}
