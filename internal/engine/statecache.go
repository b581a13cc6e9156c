package engine

import (
	"container/list"
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/rerank"
)

// StateScorer is the optional encoded-user-state contract: score a batch
// where states[i], when non-nil, replaces instance i's user-preference
// encoding, and return the states actually used so the caller can cache the
// fresh ones. *core.Model implements it; the coalescer routes through it
// whenever the engine's state cache is enabled and the pinned scorer
// supports it.
type StateScorer interface {
	BatchScorer
	ScoreBatchStates(ctx context.Context, insts []*rerank.Instance, states []*core.UserState) ([][]float64, []*core.UserState, error)
}

// StateKey identifies one cached user state: the tenant that served the
// request, a hash of the user's behavior history, and the model version that
// encoded the state. θ̂ is a pure function of the history inputs under one
// model, so that is the whole key: a returning user hits under any candidate
// slate. The version component makes canary traffic and post-promote traffic
// miss cleanly rather than read a state encoded by a different model; the
// history hash makes any change in the user's features or behavior sequences
// a miss (a stale state is never served); the tenant component keeps states
// of distinct resident scorers apart even when their version labels collide.
type StateKey struct {
	Tenant  string
	History uint64
	Version string
}

// HistoryKey hashes exactly the inputs the user-preference encoder consumes:
// the user feature vector and every per-topic behavior-sequence feature
// vector, with topic and length framing so permuted or split sequences
// cannot collide. Two requests with equal HistoryKey (and equal model
// version) are guaranteed the same encoded state.
func HistoryKey(req *Request) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, f := range req.UserFeatures {
		w(f)
	}
	for j, seq := range req.TopicSequences {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(j))<<32|uint64(uint32(len(seq))))
		h.Write(buf[:])
		for _, it := range seq {
			for _, f := range it.Features {
				w(f)
			}
		}
	}
	return h.Sum64()
}

// cacheEntry is one resident state with its budget charge.
type cacheEntry struct {
	key  StateKey
	st   *core.UserState
	size int64
}

// StateCache is a memory-budgeted LRU of encoded user states shared by all
// scoring workers. All operations take one short mutex hold; the cached
// *core.UserState values are immutable, so readers share them without
// copying. Eviction is strict LRU by total SizeBytes against the budget.
type StateCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used; values are *cacheEntry
	by     map[StateKey]*list.Element

	met *Metrics // hit/miss/eviction/invalidation counters, size gauges
}

// newStateCache builds a cache bounded to budget bytes of encoded states.
func newStateCache(budget int64, met *Metrics) *StateCache {
	return &StateCache{budget: budget, ll: list.New(), by: map[StateKey]*list.Element{}, met: met}
}

// Get returns the cached state for key, marking it most recently used.
func (c *StateCache) Get(key StateKey) (*core.UserState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.by[key]
	if !ok {
		c.met.CacheMisses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.met.CacheHits.Inc()
	return el.Value.(*cacheEntry).st, true
}

// Put installs (or refreshes) key's state and evicts least-recently-used
// entries until the cache fits its budget. A state larger than the whole
// budget is not admitted.
func (c *StateCache) Put(key StateKey, st *core.UserState) {
	if st == nil {
		return
	}
	size := int64(st.SizeBytes())
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.by[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += size - ent.size
		ent.st, ent.size = st, size
		c.ll.MoveToFront(el)
	} else {
		c.by[key] = c.ll.PushFront(&cacheEntry{key: key, st: st, size: size})
		c.bytes += size
	}
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.by, ent.key)
		c.bytes -= ent.size
		c.met.CacheEvictions.Inc()
	}
	c.met.CacheEntries.Set(float64(c.ll.Len()))
	c.met.CacheBytes.Set(float64(c.bytes))
}

// Flush drops every entry. It is the model-lifecycle invalidation hook:
// wired to the registry's state transitions (load/promote/rollback), so no
// request can ever read a state across a model swap — even when a version
// label is reused for different artifacts.
func (c *StateCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.by = map[StateKey]*list.Element{}
	c.bytes = 0
	if n > 0 {
		c.met.CacheInvalidations.Inc()
	}
	c.met.CacheEntries.Set(0)
	c.met.CacheBytes.Set(0)
}

// Stats reports the cache's resident entry count and byte size.
func (c *StateCache) Stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}

// stateKeyFor derives a request's state-cache key: set only when the cache
// is enabled and the pinned scorer can consume encoded states, so the
// scoring workers never hash or probe the cache in vain. tenant is the
// resolved tenant label.
func (e *Engine) stateKeyFor(req *Request, tenant string, pin Pinned) (StateKey, bool) {
	if e.stateCache == nil {
		return StateKey{}, false
	}
	if _, ok := pin.Scorer.(StateScorer); !ok {
		return StateKey{}, false
	}
	return StateKey{Tenant: tenant, History: HistoryKey(req), Version: pin.Version}, true
}

// StateCache exposes the engine's state cache (nil when disabled) so a
// binary can wire lifecycle invalidation and report stats.
func (e *Engine) StateCache() *StateCache { return e.stateCache }

// FlushStateCache invalidates every cached user state; safe to call at any
// time, including with no cache configured. Wire it to the model registry's
// OnSwap hook so promote/rollback can never serve a stale encoded state.
func (e *Engine) FlushStateCache() {
	if e.stateCache != nil {
		e.stateCache.Flush()
	}
}
