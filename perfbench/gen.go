package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/serve/binproto"
)

// epoch is the time base of every timestamp the benchmark records, so
// generator samples and trace spans share one clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// Request outcomes. Everything but outOK counts as failed.
const (
	outOK       uint8 = iota
	outDegraded       // answered with the init-score fallback
	outShed           // refused: 429/503 or an overloaded/draining frame
	outError          // transport error, timeout or any other status
)

// sample is one generated request. Times are nanoseconds since epoch: due
// is the scheduled send time, send when the generator actually sent, resp
// when the answer's header arrived (HTTP) and done when it was decoded.
// Latency is done − due, so a stalled generator or a stalled server both
// show in it.
type sample struct {
	idx                   int
	due, send, resp, done int64
	kind                  uint8
	key                   uint64 // trace join key of the transport span (body hash or connection+seq)
}

func (s *sample) latencyMS() float64 {
	if s.kind != outOK {
		return math.Inf(1)
	}
	return float64(s.done-s.due) / 1e6
}

// sender issues requests over one connection, one at a time.
type sender interface {
	send(ctx context.Context, d draw, s *sample) engine.Response
	close()
}

// httpSender posts JSON bodies over one keep-alive connection.
type httpSender struct {
	c      *corpus
	client *http.Client
	url    string
	buf    []byte
	trace  bool
}

func newHTTPSender(c *corpus, url string, trace bool) *httpSender {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpSender{c: c, client: &http.Client{Transport: tr, Timeout: 5 * time.Second}, url: url + "/v1/rerank", trace: trace}
}

func (h *httpSender) send(ctx context.Context, d draw, s *sample) engine.Response {
	h.buf = h.c.body(d, h.buf[:0])
	var out engine.Response
	s.kind = outError
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url, bytes.NewReader(h.buf))
	if err != nil {
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	s.send = nowNS()
	resp, err := h.client.Do(req)
	s.resp = nowNS()
	if err != nil {
		s.done = s.resp
		return out
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if json.NewDecoder(resp.Body).Decode(&out) == nil {
			s.kind = outOK
			if out.Degraded {
				s.kind = outDegraded
			}
		}
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		s.kind = outShed
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.done = nowNS()
	if h.trace {
		s.key = bodyKey(h.buf)
	}
	return out
}

func (h *httpSender) close() { h.client.CloseIdleConnections() }

// binSender speaks binproto over one TCP connection.
type binSender struct {
	c      *corpus
	addr   string
	conn   net.Conn
	client *binproto.Client
	seq    int
}

func newBinSender(c *corpus, addr string) (*binSender, error) {
	b := &binSender{c: c, addr: addr}
	return b, b.dial()
}

func (b *binSender) dial() error {
	conn, err := net.Dial("tcp", b.addr)
	if err != nil {
		return err
	}
	b.conn, b.client, b.seq = conn, binproto.NewClient(conn), 0
	return nil
}

func (b *binSender) send(ctx context.Context, d draw, s *sample) engine.Response {
	req := b.c.request(d)
	if b.conn == nil && b.dial() != nil {
		s.send, s.resp, s.done, s.kind = nowNS(), nowNS(), nowNS(), outError
		return engine.Response{}
	}
	s.key = connKey(b.conn.LocalAddr().String(), b.seq)
	b.seq++
	s.send = nowNS()
	out, err := b.client.Rerank(ctx, req)
	s.done = nowNS()
	s.resp = s.done
	var re *binproto.RemoteError
	switch {
	case err == nil && out.Degraded:
		s.kind = outDegraded
	case err == nil:
		s.kind = outOK
	case errors.As(err, &re) && re.Retryable():
		s.kind = outShed
	default:
		s.kind = outError
		if !errors.As(err, &re) {
			// The connection is unusable after a transport failure.
			b.client.Close()
			b.conn = nil
		}
	}
	return out
}

func (b *binSender) close() {
	if b.conn != nil {
		b.client.Close()
	}
}

// schedule draws Poisson arrival offsets at rate per second over dur from
// rng: independent users arriving at random, the open-loop shape.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []int64 {
	var offs []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return offs
		}
		offs = append(offs, int64(t*1e9))
	}
}

// uniform spaces arrivals evenly at rate per second over dur: the constant
// offered load of a capacity probe, where a backlog can only come from the
// system falling behind, not from an arrival burst.
func uniform(rate float64, dur time.Duration) []int64 {
	n := int(rate * dur.Seconds())
	offs := make([]int64, n)
	for i := range offs {
		offs[i] = int64(float64(i) / rate * 1e9)
	}
	return offs
}

// phase is one open-loop load phase: its schedule, and per request its
// sample and answer.
type phase struct {
	first     int     // global index of the phase's first request
	offs      []int64 // due times, ns after start
	draws     []draw
	s         []sample
	resps     []engine.Response
	start     int64
	cpuNS     int64  // process user+sys CPU over the phase
	alloc     uint64 // heap bytes allocated over the phase
	gcs       uint32
	gcPauseNS uint64
}

// run drives the phase: the senders share a cursor over the schedule; each
// takes the next due request, sleeps until it is due, and sends it. A
// request whose sender is busy past its due time goes out late, and the wait
// counts in its latency. run returns when every request has been answered.
func (p *phase) run(senders []sender) {
	n := len(p.offs)
	p.s = make([]sample, n)
	p.resps = make([]engine.Response, n)
	ctx := context.Background()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTimeNS()
	p.start = nowNS() + int64(2*time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, sd := range senders {
		wg.Add(1)
		go func(sd sender) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				s := &p.s[k]
				s.idx = p.first + k
				s.due = p.start + p.offs[k]
				if d := s.due - nowNS(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				p.resps[k] = sd.send(ctx, p.draws[k], s)
			}
		}(sd)
	}
	wg.Wait()
	p.cpuNS = cpuTimeNS() - cpu0
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.gcs = after.NumGC - before.NumGC
	p.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
}

// mergePhases joins blocks run at one rate into one phase for its latency
// statistics and resource counts. Its lateness growth and achieved rate
// span the gaps between the blocks and are not read.
func mergePhases(ps []*phase) *phase {
	m := &phase{first: ps[0].first, start: ps[0].start}
	for _, p := range ps {
		m.draws = append(m.draws, p.draws...)
		m.s = append(m.s, p.s...)
		m.resps = append(m.resps, p.resps...)
		m.cpuNS += p.cpuNS
		m.alloc += p.alloc
		m.gcs += p.gcs
		m.gcPauseNS += p.gcPauseNS
	}
	return m
}

// tailWindow is the fewest requests per window of the windowed tail
// percentiles. The machine under the benchmark has slow spells of a few
// seconds, so a phase is cut into windows of about a second and the median
// window decides: the light phase of a 36 s run sends about 2200 requests,
// so it gets eight windows, each with twelve requests beyond its p95.
const tailWindow = 250

// stats summarises a finished phase.
type phaseStats struct {
	sent, ok, failed int
	p50, p95, p99    float64 // ms; failed requests count as +Inf; p95 and p99 are windowed
	lateP99          float64 // ms
	lateGrowth       float64 // ms: median lateness of the last quarter minus the first
	achieved         float64 // un-degraded answers per second, first due time to last answer
}

func (p *phase) stats() phaseStats {
	st := phaseStats{sent: len(p.s)}
	lat := make([]float64, len(p.s))
	late := make([]float64, len(p.s))
	for i := range p.s {
		s := &p.s[i]
		lat[i] = s.latencyMS()
		late[i] = float64(s.send-s.due) / 1e6
		if s.kind == outOK {
			st.ok++
		} else {
			st.failed++
		}
	}
	st.p95 = windowedQuantile(lat, 0.95, tailWindow)
	st.p99 = windowedQuantile(lat, 0.99, tailWindow)
	st.p50 = quantile(lat, 0.5)
	if q := len(late) / 4; q > 0 {
		first := append([]float64(nil), late[:q]...)
		last := append([]float64(nil), late[len(late)-q:]...)
		st.lateGrowth = quantile(last, 0.5) - quantile(first, 0.5)
	}
	st.lateP99 = quantile(late, 0.99)
	var last int64
	for i := range p.s {
		last = max(last, p.s[i].done)
	}
	if span := last - p.start; span > 0 {
		st.achieved = float64(st.ok) / (float64(span) / 1e9)
	}
	return st
}
