package mechanism

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
)

// EngineCache is a bounded LRU of per-scenario solve engines keyed by
// scenario content hash. Identical scenarios resolve to the same engine,
// so a repeat request's coalition solves are all bitmask-cache hits; the
// LRU bound keeps a long-lived process from accumulating one engine (and
// its solution cache) per distinct scenario ever seen.
//
// One mutex guards the whole LRU, so it holds exactly capacity entries
// whatever the host's core count or the keys' bits. Under it a lookup
// does one map and one list step; the O(m·n) content check runs after
// unlocking, and the requests it serves spend milliseconds solving.
type EngineCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used; element value = *engineItem
	items  map[uint64]*list.Element
	hits   atomic.Int64
	misses atomic.Int64
}

type engineItem struct {
	key uint64
	sc  *Scenario
	eng *Engine
}

// NewEngineCache builds a cache holding at most capacity engines
// (capacity < 1 selects 1).
func NewEngineCache(capacity int) *EngineCache {
	if capacity < 1 {
		capacity = 1
	}
	return &EngineCache{cap: capacity, ll: list.New(), items: map[uint64]*list.Element{}}
}

// Get returns the cached scenario/engine pair for key, marking it most
// recently used. want guards against 64-bit hash collisions: a key hit
// whose stored scenario differs from want in content degrades to a miss
// instead of serving solutions from the wrong scenario. The returned
// *Scenario is the cached pointer (callers must use it, not their own
// copy, so engine/scenario identity checks hold).
//
// A key match counts as a use even when the content check rejects it:
// the check runs outside the lock, and a caller that misses on a
// collision replaces the entry with Add anyway.
func (c *EngineCache) Get(key uint64, want *Scenario) (*Scenario, *Engine, bool) {
	var sc *Scenario
	var eng *Engine
	c.mu.Lock()
	el, ok := c.items[key]
	if ok {
		it := el.Value.(*engineItem)
		sc, eng = it.sc, it.eng
		c.ll.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok || (want != nil && !scenarioEqual(sc, want)) {
		c.misses.Add(1)
		return nil, nil, false
	}
	c.hits.Add(1)
	return sc, eng, true
}

// Add inserts an entry, evicting the least recently used one past the
// capacity. An existing entry for the key is replaced.
func (c *EngineCache) Add(key uint64, sc *Scenario, eng *Engine) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		it := el.Value.(*engineItem)
		it.sc, it.eng = sc, eng
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&engineItem{key: key, sc: sc, eng: eng})
	if c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*engineItem).key)
	}
}

// CacheStats is the cache's point-in-time counters.
type CacheStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	// HitRate is the scenario-level hit rate (distinct from the
	// per-engine coalition bitmask hit rate in EngineStats), 0 when the
	// cache is untouched.
	HitRate float64 `json:"hit_rate"`
}

// Stats snapshots the entry count and the hit/miss counters. The
// counters are read without the lock, so the snapshot is not atomic —
// fine for monitoring, which is its only purpose.
func (c *EngineCache) Stats() CacheStats {
	c.mu.Lock()
	out := CacheStats{Entries: c.ll.Len()}
	c.mu.Unlock()
	out.Hits, out.Misses = c.hits.Load(), c.misses.Load()
	if t := out.Hits + out.Misses; t > 0 {
		out.HitRate = float64(out.Hits) / float64(t)
	}
	return out
}

// ScenarioKey hashes the solve-relevant content of a scenario (speeds,
// workloads, cost matrix, deadline, payment, trust edges) with FNV-1a so
// identical scenarios map to the same engine — the key of EngineCache and
// the content half of the serving layer's job-dedupe key. The time matrix
// is derived from speeds and workloads and needs no separate hashing.
func ScenarioKey(sc *Scenario) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	w64(uint64(sc.M()))
	w64(uint64(sc.N()))
	for _, g := range sc.GSPs {
		wf(g.SpeedGFLOPS)
	}
	for _, w := range sc.Program.Tasks {
		wf(w)
	}
	for _, row := range sc.Cost {
		for _, v := range row {
			wf(v)
		}
	}
	wf(sc.Deadline)
	wf(sc.Payment)
	for i := range sc.Trust.N() {
		sc.Trust.VisitNeighbors(i, func(j int, w float64) {
			w64(uint64(i))
			w64(uint64(j))
			wf(w)
		})
	}
	return h.Sum64()
}

// scenarioEqual verifies a key hit against the cached scenario's actual
// content, so a 64-bit hash collision degrades to a cache miss instead of
// serving solutions from the wrong scenario.
// Identity is bitwise: epsilon equality would alias distinct scenarios.
func scenarioEqual(a, b *Scenario) bool {
	if a.M() != b.M() || a.N() != b.N() ||
		a.Deadline != b.Deadline || a.Payment != b.Payment {
		return false
	}
	for i := range a.GSPs {
		if a.GSPs[i].SpeedGFLOPS != b.GSPs[i].SpeedGFLOPS {
			return false
		}
	}
	for j := range a.Program.Tasks {
		if a.Program.Tasks[j] != b.Program.Tasks[j] {
			return false
		}
	}
	for i := range a.Cost {
		for j := range a.Cost[i] {
			if a.Cost[i][j] != b.Cost[i][j] {
				return false
			}
		}
	}
	return a.Trust.Equal(b.Trust)
}
