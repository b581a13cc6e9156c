package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
)

// FuzzRerankRequest drives arbitrary bytes through the full /v1/rerank wire
// path — JSON decode, ToInstance geometry validation, admission, scoring,
// encode. The contract under fuzz: the handler never panics (a panic would
// surface as a 500 from the recovery middleware) and malformed input is
// always a 4xx, never a 5xx and never an OK with a broken instance.
//
// Seed corpus: a valid request plus the known-tricky shapes (committed under
// testdata/fuzz/FuzzRerankRequest; CI runs a -fuzztime smoke on top).
func FuzzRerankRequest(f *testing.F) {
	valid, err := json.Marshal(validRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("{"))
	f.Add([]byte(`{"user_features":"nope"}`))
	f.Add([]byte(`{"user_features":[0.1,0.2,0.3],"items":[],"topic_sequences":[[],[]]}`))
	f.Add([]byte(`{"user_features":[1e308,-1e308,0],"items":[{"id":-1,"features":[null,2],"cover":[1,0]}],"topic_sequences":[[],[]]}`))
	f.Add([]byte(`{"topic_sequences":[[{"features":[]}]]}`))

	s := NewServer(stubScorer{}, engine.Manifest{Dataset: "fuzz", Config: testConfig()}, Config{
		Budget:    time.Second,
		QueueWait: time.Second,
	})
	s.Log = func(string, ...any) {}
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/rerank", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK:
			// An accepted request must round-trip to a complete response.
			var resp engine.Response
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with undecodable body %q: %v", w.Body.String(), err)
			}
			if len(resp.Ranked) == 0 || len(resp.Ranked) != len(resp.Scores) {
				t.Fatalf("200 with malformed ranking: %+v", resp)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			// Rejected cleanly.
		default:
			t.Fatalf("status %d on input %q: %s", w.Code, body, w.Body.String())
		}
	})
}
