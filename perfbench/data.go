package main

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/rerank"
)

// Geometry of every generated request: the Taobao-like preset's 13 user
// dims, 8 item dims and m = 5 topics, with D = 5 history items per topic
// and L = 20 candidates per request.
const (
	histPerTopic = 5
	listLen      = 20
	// dataScale shrinks the Taobao-like preset to 90 users, 180 items, 225
	// labelled training lists and 90 test lists: enough distinct users,
	// histories and slates to draw requests from, cheap enough to rebuild
	// three times per run.
	dataScale = 0.15
	// corpusSeed fixes the generated universe and the served model, so the
	// work per request does not change with the workload seed; the seed
	// draws the traffic (users, slates, scores, arrival times) and the
	// trainer's shuffles.
	corpusSeed = 1
)

// corpus is one generated Taobao-like universe: labelled training instances
// and the wire-ready profiles requests are drawn from.
type corpus struct {
	cfg      core.Config
	train    []*rerank.Instance
	profiles []*profile
}

// profile is one test-split re-ranking list in wire form: a user's features
// and per-topic history, and the slate of candidates the initial ranker put
// in front of them. The pre-encoded JSON fragments let the generator build
// a fresh request body with a few appends instead of a json.Marshal.
type profile struct {
	user  []float64
	seqs  [][]engine.SeqItem
	items []engine.Item

	itemJSON [][]byte // `{"id":…,"features":[…],"cover":[…],"init_score":`
	seqJSON  []byte   // `"topic_sequences":[…]}`
}

// buildCorpus generates the universe: the dataset, an SVMRank initial
// ranker, DCM-simulated training clicks and the instances.
func buildCorpus() (*corpus, error) {
	const seed = corpusSeed
	opt := experiments.DefaultOptions()
	opt.Scale = dataScale
	opt.Seed = seed
	rd, err := experiments.BuildRankedData(dataset.TaobaoLike(seed), experiments.NewRankerByName("SVMRank", seed), opt)
	if err != nil {
		return nil, fmt.Errorf("build dataset: %w", err)
	}
	env := experiments.BuildEnv(rd, 0.9, opt)
	d := env.Data.Cfg
	cfg := core.DefaultConfig(d.UserDim, d.ItemDim, d.Topics, seed)
	cfg.D = histPerTopic
	c := &corpus{cfg: cfg, train: env.Train}
	for _, inst := range env.Test {
		if inst.L() != listLen {
			continue
		}
		c.profiles = append(c.profiles, newProfile(inst))
	}
	if len(c.profiles) == 0 || len(c.train) == 0 {
		return nil, fmt.Errorf("dataset has %d full-length test lists and %d training lists", len(c.profiles), len(c.train))
	}
	return c, nil
}

func clone(v []float64) []float64 { return append([]float64(nil), v...) }

func newProfile(inst *rerank.Instance) *profile {
	p := &profile{user: clone(inst.UserFeat), seqs: make([][]engine.SeqItem, inst.M)}
	for j, seq := range inst.TopicSeqs {
		if len(seq) > histPerTopic {
			seq = seq[len(seq)-histPerTopic:]
		}
		p.seqs[j] = make([]engine.SeqItem, 0, len(seq))
		for _, v := range seq {
			p.seqs[j] = append(p.seqs[j], engine.SeqItem{Features: clone(inst.ItemFeat(v))})
		}
	}
	for i, id := range inst.Items {
		it := engine.Item{ID: id, Features: clone(inst.ItemFeat(id)), Cover: clone(inst.Cover[i]), InitScore: inst.InitScores[i]}
		p.items = append(p.items, it)
		b := append([]byte(`{"id":`), strconv.Itoa(id)...)
		b = append(b, `,"features":`...)
		b = appendFloats(b, it.Features)
		b = append(b, `,"cover":`...)
		b = appendFloats(b, it.Cover)
		b = append(b, `,"init_score":`...)
		p.itemJSON = append(p.itemJSON, b)
	}
	b := []byte(`"topic_sequences":[`)
	for j, seq := range p.seqs {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for k, si := range seq {
			if k > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"features":`...)
			b = appendFloats(b, si.Features)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	p.seqJSON = append(b, "]}"...)
	return p
}

func appendFloats(b []byte, fs []float64) []byte {
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	return append(b, ']')
}

// draw is a request's recipe: which profile supplies history and slate,
// the user identity that perturbs the profile's user features, and the
// per-request seed of the fresh initial-ranker scores. Requests are rebuilt
// from their draw on demand, so the correctness checks see exactly the bytes
// that were sent without the run holding every request in memory.
type draw struct {
	profile int32
	user    uint64 // user identity: same value, same features and history
	fresh   uint64 // per-request randomness for the init scores
}

// splitmix is the SplitMix64 finalizer: a cheap, well-mixed hash used to
// derive per-request randomness from (seed, index) without an RNG object.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [-1, 1).
func unit(h uint64) float64 { return float64(h>>11)/float64(1<<52) - 1 }

// userFeatures perturbs the profile's user vector by the user identity, so
// distinct identities are distinct users to every cache key (RouteKey and
// HistoryKey both hash the user features).
func (p *profile) userFeatures(user uint64) []float64 {
	out := make([]float64, len(p.user))
	for k, f := range p.user {
		out[k] = f + 0.05*unit(splitmix(user*31+uint64(k)))
	}
	return out
}

// initScores refreshes the slate's initial-ranker scores: each request is a
// new call of the upstream ranker, so scores move a little and are unique to
// the request (the trace joins spans on them).
func (p *profile) initScores(fresh uint64) []float64 {
	out := make([]float64, len(p.items))
	for i, it := range p.items {
		out[i] = it.InitScore + 1e-3*unit(splitmix(fresh*67+uint64(i)))
	}
	return out
}

// request builds the wire request of a draw.
func (c *corpus) request(d draw) *engine.Request {
	p := c.profiles[d.profile]
	init := p.initScores(d.fresh)
	req := &engine.Request{UserFeatures: p.userFeatures(d.user), TopicSequences: p.seqs, Items: make([]engine.Item, len(p.items))}
	for i, it := range p.items {
		it.InitScore = init[i]
		req.Items[i] = it
	}
	return req
}

// body builds the JSON body of a draw from the pre-encoded fragments; it
// decodes to exactly c.request(d).
func (c *corpus) body(d draw, b []byte) []byte {
	p := c.profiles[d.profile]
	b = append(b, `{"user_features":`...)
	b = appendFloats(b, p.userFeatures(d.user))
	b = append(b, `,"items":[`...)
	for i, s := range p.initScores(d.fresh) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p.itemJSON[i]...)
		b = strconv.AppendFloat(b, s, 'g', -1, 64)
		b = append(b, '}')
	}
	b = append(b, "],"...)
	return append(b, p.seqJSON...)
}

// joinKey identifies one request across layers by its init scores, which
// are fresh per request: the scorer sees them on the instance, the client
// on the request.
func joinKey(init []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range init {
		h = (h ^ math.Float64bits(s)) * 1099511628211
	}
	return h
}
