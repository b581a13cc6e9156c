package serve

import "repro/internal/engine"

// RerankBatchResponse is the wire format of a POST /v1/rerank:batch reply:
// one response per request, in request order. Items degrade independently:
// inspect each response's Degraded/Error rather than an envelope-level
// status. The request side is engine.BatchRequest, whose JSON decoder the
// router shares.
type RerankBatchResponse struct {
	Responses []engine.Response `json:"responses"`
}
