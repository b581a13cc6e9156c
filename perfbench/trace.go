package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/rerank"
)

// Layer boundaries the traced run records. Spans are kept in memory and
// written out when the run ends.
const (
	layerClient  = "client"
	layerRouter  = "router"
	layerReplica = "replica"
	layerScore   = "score"
)

// span is one recorded interval. Start and End are nanoseconds since the
// process's epoch on the monotonic clock, the generator's time base. Key
// joins a span to its request: the FNV hash of the JSON body for HTTP spans, the connection and sequence
// number for binary replica spans, and the init-score join key for client
// and score spans (Keys holds one per instance of a score batch).
type span struct {
	Layer  string   `json:"layer"`
	Key    uint64   `json:"key,omitempty"`
	Keys   []uint64 `json:"keys,omitempty"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Cached int      `json:"cached,omitempty"` // score: instances with a supplied user state
}

// tracer records spans from every layer boundary. One mutex suffices: at
// the benchmark's rates a span append is a few hundred nanoseconds against
// milliseconds of work per request.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and starts a new list.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

func bodyKey(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// wrapHandler records a span around an HTTP handler, keyed by the request
// body (the router forwards bodies byte for byte, so a request's router and
// replica spans share the key). The body is buffered first so it can be
// hashed; the copy is part of the tracing overhead.
func (t *tracer) wrapHandler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := nowNS()
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
		t.add(span{Layer: layer, Key: bodyKey(body), Start: start, End: nowNS()})
	})
}

// connKey identifies the seq-th request of a binary connection by the
// client's address, which the server sees as the peer address.
func connKey(addr string, seq int) uint64 { return bodyKey([]byte(addr)) + uint64(seq) }

// tracedListener records a replica span for every binary request: from the
// first byte read of a request to the write of its answer. binproto.Server
// owns its connections, so the connection is the nearest boundary the
// benchmark can wrap; the protocol answers in order and the generator sends
// one request at a time per connection, so reads and writes pair up.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, peer: c.RemoteAddr().String()}, nil
}

type tracedConn struct {
	net.Conn
	tr    *tracer
	peer  string
	seq   int
	open  bool
	start int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.open {
		c.open, c.start = true, nowNS()
	}
	return n, err
}

// Write ends the open span before writing: once the answer is on the wire
// the client may record its completion before this goroutine runs again.
func (c *tracedConn) Write(p []byte) (int, error) {
	if c.open {
		c.tr.add(span{Layer: layerReplica, Key: connKey(c.peer, c.seq), Start: c.start, End: nowNS()})
		c.open = false
		c.seq++
	}
	return c.Conn.Write(p)
}

// tracedScorer wraps the model with a score span per scoring call. It is a
// pointer type and implements every scoring contract of *core.Model, so the
// coalescer still batches (the batch key needs a comparable scorer) and the
// engine still takes the state-cache path.
type tracedScorer struct {
	m  *core.Model
	tr *tracer
}

func (s *tracedScorer) Name() string { return s.m.Name() }

func (s *tracedScorer) Score(ctx context.Context, inst *rerank.Instance) ([]float64, error) {
	start := nowNS()
	out, err := s.m.Score(ctx, inst)
	s.record([]*rerank.Instance{inst}, 0, start)
	return out, err
}

func (s *tracedScorer) ScoreBatch(ctx context.Context, insts []*rerank.Instance) ([][]float64, error) {
	start := nowNS()
	out, err := s.m.ScoreBatch(ctx, insts)
	s.record(insts, 0, start)
	return out, err
}

func (s *tracedScorer) ScoreBatchStates(ctx context.Context, insts []*rerank.Instance, states []*core.UserState) ([][]float64, []*core.UserState, error) {
	start := nowNS()
	out, used, err := s.m.ScoreBatchStates(ctx, insts, states)
	cached := 0
	for _, st := range states {
		if st != nil {
			cached++
		}
	}
	s.record(insts, cached, start)
	return out, used, err
}

func (s *tracedScorer) record(insts []*rerank.Instance, cached int, start int64) {
	end := nowNS()
	keys := make([]uint64, len(insts))
	for i, inst := range insts {
		keys[i] = joinKey(inst.InitScores)
	}
	s.tr.add(span{Layer: layerScore, Keys: keys, Start: start, End: end, Cached: cached})
}

// writeTrace writes the environment record and every span, one JSON object
// per line, to dir/<workload>-seed<seed>.jsonl and returns the path.
func writeTrace(dir, workload string, seed int64, env envRecord, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"env": env})
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(&spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
