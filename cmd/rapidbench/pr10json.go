package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/serve/binproto"
)

// pr10File is the BENCH_PR10.json layout: the two wire codecs and the two
// full frontends measured against the same engine and the same request, plus
// the derived ratios the CI gates read. There is no pinned cross-commit
// baseline: the binary protocol did not exist before this change, so the
// comparison that matters is intra-run — JSON entries are the baseline.
type pr10File struct {
	Generated string                 `json:"generated"`
	Env       benchEnv               `json:"env"`
	Note      string                 `json:"note"`
	Current   map[string]benchResult `json:"current"`
	// CodecAllocRatio is BinaryCodec allocs/op over JSONCodec allocs/op for
	// one full request+response encode/decode cycle (client encode, server
	// decode, server encode, client decode). The binary codec reuses its
	// encode buffers, so this is the serialization cost a steady-state
	// fleet-internal hop pays.
	CodecAllocRatio float64 `json:"codec_alloc_ratio"`
	// RoundTripAllocRatio is BinaryRoundTrip allocs/op over JSONRoundTrip
	// allocs/op: a live request through each frontend into the same engine.
	// Both sides pay the identical scoring cost, so the gap is pure
	// transport (HTTP machinery + JSON text vs length-prefixed frames).
	RoundTripAllocRatio float64 `json:"round_trip_alloc_ratio"`
	// CodecSpeedupX / RoundTripSpeedupX are JSON ns/op over binary ns/op.
	CodecSpeedupX     float64 `json:"codec_speedup_x"`
	RoundTripSpeedupX float64 `json:"round_trip_speedup_x"`
	// ScoreParity records that the two frontends returned bitwise-identical
	// scores and ranking for the benchmark request before timing started.
	ScoreParity bool `json:"score_parity"`
}

// Gates for -pr10json -check. The allocation gates are strict inequalities —
// allocs/op is deterministic, not timing noise — and are the acceptance
// criterion for the binary frontend: it must be cheaper per request than
// JSON, not merely equivalent. The timing gate is a loose backstop only;
// loopback round trips on shared runners jitter far too much to gate tightly.
const (
	pr10MaxBinarySlowdown = 1.25 // BinaryRoundTrip ns/op vs JSONRoundTrip (noise backstop)
)

// pr10Model is the serving geometry both frontends score against: big enough
// that requests look like production traffic (20 candidates, 5 behavior
// topics), small enough that one scoring pass stays well inside the budget.
func pr10Model() (engine.Scorer, engine.Manifest) {
	cfg := core.Config{
		UserDim: 8, ItemDim: 6, Topics: 5, Hidden: 16, D: 8,
		Output: core.Probabilistic, Encoder: core.BiLSTMEncoder, Agg: core.LSTMAgg,
		UseDiversity: true, Heads: 2, Seed: 7,
	}
	m := core.New(cfg)
	return m, engine.Manifest{Dataset: "bench-pr10", Config: cfg}
}

// pr10Request builds the deterministic benchmark request: the rapidload
// generator's shape (normal features, uniform covers and init scores) at the
// pr10Model geometry with 20 candidates.
func pr10Request(cfg core.Config) *engine.Request {
	rng := rand.New(rand.NewSource(10))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	req := &engine.Request{
		UserFeatures:   vec(cfg.UserDim),
		TopicSequences: make([][]engine.SeqItem, cfg.Topics),
	}
	for j := range req.TopicSequences {
		seq := make([]engine.SeqItem, 3)
		for k := range seq {
			seq[k] = engine.SeqItem{Features: vec(cfg.ItemDim)}
		}
		req.TopicSequences[j] = seq
	}
	for i := 0; i < 20; i++ {
		cover := make([]float64, cfg.Topics)
		for j := range cover {
			cover[j] = rng.Float64() * 0.5
		}
		req.Items = append(req.Items, engine.Item{
			ID:        1000 + i,
			Features:  vec(cfg.ItemDim),
			Cover:     cover,
			InitScore: rng.Float64(),
		})
	}
	return req
}

// pr10Parity sends req through both frontends once and verifies the answers
// are bitwise-identical in ranking and scores (request IDs differ by design:
// each served response gets its own). A degraded response fails parity — a
// benchmark of the fallback path would not measure what this file claims.
func pr10Parity(httpURL string, bin *binproto.Client, req *engine.Request) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := http.Post(httpURL+"/v1/rerank", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("http parity request: %w", err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return fmt.Errorf("http parity request: status %d", hr.StatusCode)
	}
	var jresp engine.Response
	if err := json.NewDecoder(hr.Body).Decode(&jresp); err != nil {
		return err
	}
	bresp, err := bin.Rerank(context.Background(), req)
	if err != nil {
		return fmt.Errorf("binary parity request: %w", err)
	}
	if jresp.Degraded || bresp.Degraded {
		return fmt.Errorf("parity request degraded (json %v, binary %v)", jresp.Degraded, bresp.Degraded)
	}
	if len(jresp.Ranked) != len(bresp.Ranked) || len(jresp.Scores) != len(bresp.Scores) {
		return fmt.Errorf("parity shape mismatch: json %d/%d, binary %d/%d",
			len(jresp.Ranked), len(jresp.Scores), len(bresp.Ranked), len(bresp.Scores))
	}
	for i := range jresp.Ranked {
		if jresp.Ranked[i] != bresp.Ranked[i] {
			return fmt.Errorf("parity rank[%d]: json %d, binary %d", i, jresp.Ranked[i], bresp.Ranked[i])
		}
		if math.Float64bits(jresp.Scores[i]) != math.Float64bits(bresp.Scores[i]) {
			return fmt.Errorf("parity score[%d]: json %x, binary %x",
				i, math.Float64bits(jresp.Scores[i]), math.Float64bits(bresp.Scores[i]))
		}
	}
	return nil
}

// runPR10JSON benchmarks the JSON and binary frontends against one shared
// engine and writes BENCH_PR10.json. smoke shortens the repetition count;
// every entry is gate-read, so none are skipped. check exits non-zero when
// the binary path fails to beat JSON on per-request allocations.
func runPR10JSON(path string, smoke, check bool) error {
	model, man := pr10Model()
	srv := serve.NewServer(model, man, serve.Config{Budget: 2 * time.Second})
	srv.Log = func(string, ...any) {}
	req := pr10Request(man.Config)

	// JSON frontend: the real handler behind a real HTTP server on loopback.
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	// Binary frontend: the binproto server over the same engine on loopback.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	bs := &binproto.Server{Eng: srv.Engine, Log: func(string, ...any) {}}
	go bs.Serve(ln)
	defer ln.Close()
	bin, err := binproto.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer bin.Close()

	out := pr10File{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Env: benchEnv{
			Go:         runtime.Version(),
			CPU:        runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Arch:       runtime.GOARCH,
		},
		Note: "JSON entries are the baseline: both frontends drive the same engine " +
			"with the same request, so every delta is transport cost",
		Current: make(map[string]benchResult),
	}

	if err := pr10Parity(hts.URL, bin, req); err != nil {
		return fmt.Errorf("cross-frontend parity: %w", err)
	}
	out.ScoreParity = true

	// A representative response for the codec benchmarks: what the engine
	// actually answers for req, not a synthetic shape.
	refResp, err := bin.Rerank(context.Background(), req)
	if err != nil {
		return err
	}

	benches := []struct {
		name string
		f    func(b *testing.B)
	}{
		{"JSONCodec", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wire, err := json.Marshal(req)
				if err != nil {
					b.Fatal(err)
				}
				var dreq engine.Request
				if err := json.Unmarshal(wire, &dreq); err != nil {
					b.Fatal(err)
				}
				rwire, err := json.Marshal(&refResp)
				if err != nil {
					b.Fatal(err)
				}
				var dresp engine.Response
				if err := json.Unmarshal(rwire, &dresp); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"BinaryCodec", func(b *testing.B) {
			b.ReportAllocs()
			var pbuf, rbuf []byte
			for i := 0; i < b.N; i++ {
				pbuf = binproto.AppendRequest(pbuf[:0], req)
				if _, err := binproto.DecodeRequest(pbuf); err != nil {
					b.Fatal(err)
				}
				rbuf = binproto.AppendResponse(rbuf[:0], &refResp)
				if _, err := binproto.DecodeResponse(rbuf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"JSONRoundTrip", func(b *testing.B) {
			body, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			client := hts.Client()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hr, err := client.Post(hts.URL+"/v1/rerank", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				var resp engine.Response
				if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
					b.Fatal(err)
				}
				hr.Body.Close()
				if hr.StatusCode != http.StatusOK || resp.Degraded {
					b.Fatalf("status %d degraded %v", hr.StatusCode, resp.Degraded)
				}
			}
		}},
		{"BinaryRoundTrip", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := bin.Rerank(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if resp.Degraded {
					b.Fatal("degraded response")
				}
			}
		}},
	}

	// Best-of-N like the pr7 harness: noise only slows a repetition down, so
	// the fastest rep is the least-noisy estimate. Allocs/op is identical
	// across reps. Smoke keeps one rep — the alloc gates it feeds are exact.
	reps := 3
	if smoke {
		reps = 1
	}
	for _, e := range benches {
		fmt.Fprintf(os.Stderr, "rapidbench: benchmarking %s...\n", e.name)
		var res benchResult
		for rep := 0; rep < reps; rep++ {
			r := testing.Benchmark(e.f)
			cand := benchResult{
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				Iterations:  r.N,
			}
			if rep == 0 || cand.NsPerOp < res.NsPerOp {
				res = cand
			}
		}
		out.Current[e.name] = res
		fmt.Fprintf(os.Stderr, "rapidbench: %-16s %10.0f ns/op %8d B/op %6d allocs/op\n",
			e.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}

	jc, bc := out.Current["JSONCodec"], out.Current["BinaryCodec"]
	jr, br := out.Current["JSONRoundTrip"], out.Current["BinaryRoundTrip"]
	if jc.AllocsPerOp > 0 {
		out.CodecAllocRatio = float64(bc.AllocsPerOp) / float64(jc.AllocsPerOp)
	}
	if jr.AllocsPerOp > 0 {
		out.RoundTripAllocRatio = float64(br.AllocsPerOp) / float64(jr.AllocsPerOp)
	}
	if bc.NsPerOp > 0 {
		out.CodecSpeedupX = jc.NsPerOp / bc.NsPerOp
	}
	if br.NsPerOp > 0 {
		out.RoundTripSpeedupX = jr.NsPerOp / br.NsPerOp
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rapidbench: wrote %s (codec %.2fx faster / %.2fx allocs, round trip %.2fx faster / %.2fx allocs)\n",
		path, out.CodecSpeedupX, out.CodecAllocRatio, out.RoundTripSpeedupX, out.RoundTripAllocRatio)

	if check {
		if !out.ScoreParity {
			return fmt.Errorf("cross-frontend score parity not established")
		}
		if bc.AllocsPerOp >= jc.AllocsPerOp {
			return fmt.Errorf("binary codec allocates %d/op, JSON %d/op — binary must be strictly cheaper",
				bc.AllocsPerOp, jc.AllocsPerOp)
		}
		if br.AllocsPerOp >= jr.AllocsPerOp {
			return fmt.Errorf("binary round trip allocates %d/op, JSON %d/op — binary must be strictly cheaper",
				br.AllocsPerOp, jr.AllocsPerOp)
		}
		if jr.NsPerOp > 0 && br.NsPerOp/jr.NsPerOp > pr10MaxBinarySlowdown {
			return fmt.Errorf("binary round trip is %.1f%% slower than JSON (gate: %.0f%%)",
				(br.NsPerOp/jr.NsPerOp-1)*100, (pr10MaxBinarySlowdown-1)*100)
		}
		fmt.Fprintln(os.Stderr, "rapidbench: pr10 gates passed")
	}
	return nil
}
