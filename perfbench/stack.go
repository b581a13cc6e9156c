package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rerank"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/serve/binproto"
)

// stack is the system under test, assembled from the constructors the
// binaries use: a serve.Server replica (HTTP and binproto frontends over one
// engine) behind an internal/router, each on its own loopback listener. The
// replica runs with rapidserve's defaults: 50 ms budget, 4×GOMAXPROCS
// scoring slots, 10 ms queue wait, 16/2 ms coalescing and a 64 MiB state
// cache.
type stack struct {
	corpus *corpus
	model  *core.Model
	srv    *serve.Server
	hs     *http.Server
	bin    *binproto.Server
	rt     *router.Router
	rs     *http.Server
	binLn  net.Listener

	replicaURL, routerURL, binAddr string
}

// trainModel fits the small RAPID-pro model the replica serves: two epochs
// over the corpus's labelled lists.
func trainModel(c *corpus) (*core.Model, error) {
	m := core.New(c.cfg)
	m.TrainCfg = rerank.TrainConfig{Epochs: 2, LR: 0.005, BatchSize: 8, ClipNorm: 5, Seed: corpusSeed}
	if err := m.Fit(c.train); err != nil {
		return nil, fmt.Errorf("train model: %w", err)
	}
	return m, nil
}

// startStack builds and starts the stack. tr, when non-nil, wraps the router
// and replica handlers, the binary listener and the scorer in span
// recorders; nil runs the stack exactly as the binaries do.
func startStack(c *corpus, tr *tracer) (*stack, error) {
	model, err := trainModel(c)
	if err != nil {
		return nil, err
	}
	s := &stack{corpus: c, model: model}
	var scorer engine.Scorer = model
	if tr != nil {
		scorer = &tracedScorer{m: model, tr: tr}
	}
	man := engine.Manifest{Dataset: "taobao", Lambda: 0.9, Config: c.cfg}
	s.srv = serve.NewServer(scorer, man, serve.Config{StateCacheBytes: 64 << 20})
	s.srv.Log = func(string, ...any) {}

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = s.srv.NewHTTPServer(httpLn.Addr().String())
	if tr != nil {
		s.hs.Handler = tr.wrapHandler(layerReplica, s.hs.Handler)
	}
	go s.hs.Serve(httpLn)
	s.replicaURL = "http://" + httpLn.Addr().String()

	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.binLn = binLn
	s.binAddr = binLn.Addr().String()
	s.bin = &binproto.Server{Eng: s.srv.Engine, Log: func(string, ...any) {}}
	var ln net.Listener = binLn
	if tr != nil {
		ln = &tracedListener{Listener: binLn, tr: tr}
	}
	go s.bin.Serve(ln)

	s.rt, err = router.New(router.Config{Replicas: []router.Replica{{ID: "r0", URL: s.replicaURL}}})
	if err != nil {
		s.close()
		return nil, err
	}
	s.rt.Start()
	rtLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	var rh http.Handler = s.rt.Handler()
	if tr != nil {
		rh = tr.wrapHandler(layerRouter, rh)
	}
	s.rs = &http.Server{Handler: rh, ReadHeaderTimeout: 2 * time.Second}
	go s.rs.Serve(rtLn)
	s.routerURL = "http://" + rtLn.Addr().String()
	if err := s.waitReady(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// waitReady polls the router's readiness until its prober admits the
// replica.
func (s *stack) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.routerURL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("router never admitted the replica")
}

// close stops every server and waits for them. Callers close their binary
// client connections first: binproto.Server.Shutdown waits for every
// connection to hang up.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.rs != nil {
		s.rs.Shutdown(ctx)
	}
	if s.rt != nil {
		s.rt.Close()
	}
	if s.hs != nil {
		s.hs.Shutdown(ctx)
	}
	if s.binLn != nil {
		s.binLn.Close()
		s.bin.Shutdown(ctx)
	}
	if s.srv != nil {
		s.srv.Engine.Close()
	}
}
