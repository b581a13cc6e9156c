package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

// servingWorkload is one traffic shape against the stack.
type servingWorkload struct {
	name string
	// binary sends binproto frames straight to the replica; otherwise JSON
	// goes through the router.
	binary bool
	// lo and hi are the fixed offered rates (req/s) of the light and loaded
	// phases; ladder is the fixed ascending rate ladder behind max_rps. They
	// are constants so the parent and a change see the same offered load.
	//
	// hi is kept where the share of requests the coalescer holds for its
	// MaxWait stays well below one half. Near one half the latency
	// distribution has two modes of about equal weight (answered at once,
	// or after the 2 ms wait), so the median jumps between them from run
	// to run: on direct-binary-warm at 550 req/s it read 1.3 ms in some runs
	// and 2.8 ms in others. The wait still shows in the loaded phase's tail,
	// in engine.coalesce_wait_ms and in where the ladder collapses.
	lo, hi float64
	ladder []float64
	// population > 0 draws returning users from a fixed Zipf-popular
	// population of that size, pre-warmed at set-up; newUserFrac of requests
	// still come from users never seen before. population == 0 makes every
	// request a new user.
	population  int
	newUserFrac float64
}

var (
	routerJSONCold = &servingWorkload{
		name: "router-json-cold",
		lo:   200, hi: 250,
		ladder: []float64{425, 465, 510, 560, 620, 680, 750},
	}
	directBinaryWarm = &servingWorkload{
		name: "direct-binary-warm", binary: true,
		lo: 200, hi: 300,
		ladder:      []float64{730, 805, 885, 975, 1070, 1180, 1300},
		population:  1000,
		newUserFrac: 0.1,
	}
)

// Phase lengths as shares of --seconds: the light phase, the loaded phase
// and each ladder step. The ladder stops at its first failing step. The
// light and loaded phases are each split into rounds blocks, which
// alternate (see alternate).
const (
	loShare   = 0.3
	hiShare   = 0.35
	stepShare = 0.05 // seven steps at most, each 1.1 times the last
	rounds    = 6
	// setupRepeats is how many times a run builds the whole stack; setup_s
	// is the median.
	setupRepeats = 3
	// budgetMS is max_rps's latency limit on p99: the paper's 50 ms
	// industrial budget, which is also the engine's default Budget.
	budgetMS = 50
	// minOKShare is max_rps's floor on un-degraded answers per request sent.
	minOKShare = 0.999
	// maxLateGrowthMS bounds how much the generator's median lateness may
	// grow from the first to the last quarter of a ladder step; more means
	// a backlog is building. Poisson bursts alone move it by a few ms; a
	// rate 10% past capacity grows it by tens of ms within one step.
	maxLateGrowthMS = 10.0
	// warmupRequests is the closed-loop warm-up of the cold workload, per
	// connection.
	warmupRequests = 64
)

// drawer derives each request's draw from the workload seed and the
// request's global index.
type drawer struct {
	w    *servingWorkload
	c    *corpus
	seed uint64
	cdf  []float64 // Zipf(1) over the population
}

func newDrawer(w *servingWorkload, c *corpus, seed int64) *drawer {
	d := &drawer{w: w, c: c, seed: splitmix(uint64(seed))}
	if w.population > 0 {
		d.cdf = make([]float64, w.population)
		sum := 0.0
		for k := range d.cdf {
			sum += 1 / float64(k+1)
			d.cdf[k] = sum
		}
		for k := range d.cdf {
			d.cdf[k] /= sum
		}
	}
	return d
}

func (d *drawer) draw(i int) draw {
	h := splitmix(d.seed ^ uint64(i)*0x9e3779b97f4a7c15)
	fresh := splitmix(h ^ 1)
	np := uint64(len(d.c.profiles))
	u := (unit(splitmix(h^2)) + 1) / 2
	if d.w.population == 0 || u < d.w.newUserFrac {
		return draw{profile: int32(splitmix(h^3) % np), user: splitmix(h^4) | 1<<63, fresh: fresh}
	}
	k := sort.SearchFloat64s(d.cdf, (unit(splitmix(h^5))+1)/2)
	return d.returning(min(k, d.w.population-1), fresh)
}

// returning is the draw of population member k: a fixed profile, so a fixed
// history and candidate slate, and fixed user features.
func (d *drawer) returning(k int, fresh uint64) draw {
	return draw{profile: int32(k % len(d.c.profiles)), user: uint64(k), fresh: fresh}
}

// servingRun is one serving run: a stack with its senders, the phases run
// so far, and the set-up times.
type servingRun struct {
	w       *servingWorkload
	seed    int64
	st      *stack
	senders []sender
	dr      *drawer
	next    int // global index of the next request
	phases  []*phase
}

// startServing sets the stack up, dials the senders and warms up: the cold
// workload sends a short closed-loop burst of new users; the warm workload
// visits every population member once, which fills the state cache.
func startServing(w *servingWorkload, seed int64, tr *tracer) (*servingRun, error) {
	c, err := buildCorpus()
	if err != nil {
		return nil, err
	}
	st, err := startStack(c, tr)
	if err != nil {
		return nil, err
	}
	r := &servingRun{w: w, seed: seed, st: st, dr: newDrawer(w, c, seed)}
	// One connection, and one goroutine driving it, per CPU.
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		if w.binary {
			bs, err := newBinSender(c, st.binAddr)
			if err != nil {
				r.close()
				return nil, err
			}
			r.senders = append(r.senders, bs)
		} else {
			r.senders = append(r.senders, newHTTPSender(c, st.routerURL, tr != nil))
		}
	}
	var warm []draw
	if w.population > 0 {
		for k := 0; k < w.population; k++ {
			warm = append(warm, r.dr.returning(k, splitmix(uint64(k)^0x5eed)))
		}
	} else {
		for i := 0; i < warmupRequests*len(r.senders); i++ {
			warm = append(warm, r.dr.draw(-1-i))
		}
	}
	p := &phase{offs: make([]int64, len(warm)), draws: warm, first: -len(warm)}
	p.run(r.senders)
	if st := p.stats(); st.failed > 0 {
		r.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", st.failed, st.sent)
	}
	if tr != nil {
		tr.take()
	}
	return r, nil
}

func (r *servingRun) close() {
	for _, s := range r.senders {
		s.close()
	}
	r.st.close()
}

// runPhase runs one open-loop phase at rate for dur: Poisson arrivals drawn
// from the workload seed, or evenly spaced ones for a ladder step.
func (r *servingRun) runPhase(name string, rate float64, dur time.Duration, even bool) *phase {
	runtime.GC()
	p := &phase{first: r.next}
	if even {
		p.offs = uniform(rate, dur)
	} else {
		p.offs = schedule(rand.New(rand.NewSource(r.seed*7919+int64(len(r.phases)))), rate, dur)
	}
	p.draws = make([]draw, len(p.offs))
	for k := range p.draws {
		p.draws[k] = r.dr.draw(r.next + k)
	}
	r.next += len(p.offs)
	p.run(r.senders)
	r.phases = append(r.phases, p)
	st := p.stats()
	fmt.Fprintf(os.Stderr, "phase %-9s rate %6.0f/s sent %6d ok %6d p50 %7.3f ms p95 %7.3f ms p99 %8.3f ms late p99 %7.3f ms growth %6.3f ms achieved %7.1f/s\n",
		name, rate, st.sent, st.ok, st.p50, st.p95, st.p99, st.lateP99, st.lateGrowth, st.achieved)
	return p
}

// alternate runs the light and loaded phases as rounds of short blocks,
// light then loaded in even rounds and loaded then light in odd ones, and
// returns each rate's blocks merged. The shared host the benchmark runs on
// has slow spells lasting seconds; spread over the whole measured time,
// both rates see the same mix of them, and a spell weighs on a run's
// figures less than when it falls on one contiguous phase.
func (r *servingRun) alternate(secs int) (lo, hi *phase) {
	var los, his []*phase
	loDur, hiDur := secondsShare(secs, loShare/rounds), secondsShare(secs, hiShare/rounds)
	for i := 0; i < rounds; i++ {
		l := func() { los = append(los, r.runPhase(fmt.Sprintf("lo-%d", i), r.w.lo, loDur, false)) }
		h := func() { his = append(his, r.runPhase(fmt.Sprintf("hi-%d", i), r.w.hi, hiDur, false)) }
		if i%2 == 0 {
			l()
			h()
		} else {
			h()
			l()
		}
	}
	return mergePhases(los), mergePhases(his)
}

// ladder climbs the rate ladder, each step at an even constant rate, until a
// step fails, and returns the achieved rate of the highest passing step:
// un-degraded answers per second from the step's first due time to its last
// answer. If even the first step fails, it returns that step's achieved
// rate, which then reads below the step.
func (r *servingRun) ladder(step time.Duration) (maxRPS float64) {
	for i, rate := range r.w.ladder {
		st := r.runPhase(fmt.Sprintf("ladder-%d", i), rate, step, true).stats()
		pass := st.p99 <= budgetMS && float64(st.ok) >= minOKShare*float64(st.sent) && st.lateGrowth <= maxLateGrowthMS
		if !pass {
			fmt.Fprintf(os.Stderr, "ladder stops at %.0f/s: p99 %.1f ms (limit %d), %d of %d un-degraded, lateness growth %.1f ms (limit %.0f)\n",
				rate, st.p99, budgetMS, st.ok, st.sent, st.lateGrowth, maxLateGrowthMS)
			if i == 0 {
				maxRPS = st.achieved
			}
			break
		}
		maxRPS = st.achieved
	}
	return maxRPS
}

func secondsShare(secs int, share float64) time.Duration {
	return time.Duration(float64(secs) * share * float64(time.Second))
}

// runServing is one untraced run: set the stack up setupRepeats times (the
// last one serves), alternate the light and loaded phases, climb the
// ladder, check every answer, and report the end-to-end metrics.
func runServing(w *servingWorkload, seed int64, secs int) (*result, error) {
	var setups []float64
	var r *servingRun
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = epoch
		}
		run, err := startServing(w, seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			run.close()
		} else {
			r = run
		}
	}
	defer r.close()
	lo, hi := r.alternate(secs)
	maxRPS := r.ladder(secondsShare(secs, stepShare))
	if err := r.check(); err != nil {
		return nil, err
	}
	los, his := lo.stats(), hi.stats()
	done := float64(his.sent)
	res := &result{Correct: true, Attempted: los.sent + his.sent, Failed: los.failed + his.failed}
	res.add("setup_s", median(setups), "s")
	res.add("p50_ms_lo", los.p50, "ms")
	res.add("p95_ms_lo", los.p95, "ms")
	res.add("p50_ms_hi", his.p50, "ms")
	res.add("p95_ms_hi", his.p95, "ms")
	res.add("max_rps", maxRPS, "1/s")
	res.add("cpu_ms_per_op", float64(hi.cpuNS)/1e6/done, "ms")
	res.add("alloc_kb_per_op", float64(hi.alloc)/1024/done, "KiB")
	res.add("peak_rss_mb", peakRSSMB(), "MiB")
	for _, m := range res.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			return nil, fmt.Errorf("non-finite metric in %+v (every request of a phase failed?)", res.Metrics)
		}
	}
	return res, nil
}
