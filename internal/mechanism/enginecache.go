package mechanism

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"runtime"
	"sync"
)

// EngineCache is a bounded, sharded LRU of per-scenario solve engines
// keyed by scenario content hash. Identical scenarios resolve to the same
// engine, so a repeat request's coalition solves are all bitmask-cache
// hits; the LRU bound keeps a long-lived process from accumulating one
// engine (and its solution cache) per distinct scenario ever seen.
//
// The cache is sharded by the low bits of the key (power-of-two shard
// count, one mutex per shard) so concurrent lookups from a serving worker
// pool contend per shard instead of on one process-wide lock. FNV-1a
// mixes scenario content well enough that shard occupancy is uniform in
// practice; the total capacity is split evenly across shards, so eviction
// is per-shard LRU — global LRU order is approximated, never correctness:
// eviction only discards memoized solutions.
type EngineCache struct {
	shards []engineShard
	mask   uint64
}

// engineShard is one independently locked LRU slice of the cache.
type engineShard struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used; element value = *engineItem
	items  map[uint64]*list.Element
	hits   int64
	misses int64
}

type engineItem struct {
	key uint64
	sc  *Scenario
	eng *Engine
}

// DefaultCacheShards returns the default shard count: the smallest power
// of two ≥ GOMAXPROCS, clamped to [1, 64] — enough shards that workers
// rarely collide, few enough that per-shard capacity stays useful.
func DefaultCacheShards() int {
	return ceilPow2(runtime.GOMAXPROCS(0), 64)
}

// ceilPow2 rounds n up to a power of two in [1, max].
func ceilPow2(n, max int) int {
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return 1 << bits.Len(uint(n-1))
}

// NewEngineCache builds a cache holding at most capacity engines across
// shards shards. capacity < 1 selects 1; shards is rounded up to a power
// of two in [1, 256] (0 selects DefaultCacheShards). Each shard holds
// ⌈capacity/shards⌉ entries, so the worst-case live total slightly
// exceeds capacity when capacity does not divide evenly.
func NewEngineCache(capacity, shards int) *EngineCache {
	if capacity < 1 {
		capacity = 1
	}
	if shards == 0 {
		shards = DefaultCacheShards()
	}
	shards = ceilPow2(shards, 256)
	if shards > capacity {
		shards = ceilPow2(capacity, 256)
		if shards > capacity {
			shards >>= 1
		}
		if shards < 1 {
			shards = 1
		}
	}
	perShard := (capacity + shards - 1) / shards
	c := &EngineCache{shards: make([]engineShard, shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		c.shards[i] = engineShard{cap: perShard, ll: list.New(), items: map[uint64]*list.Element{}}
	}
	return c
}

func (c *EngineCache) shard(key uint64) *engineShard {
	return &c.shards[key&c.mask]
}

// Get returns the cached scenario/engine pair for key, marking it most
// recently used. want guards against 64-bit hash collisions: a key hit
// whose stored scenario differs from want in content degrades to a miss
// instead of serving solutions from the wrong scenario. The returned
// *Scenario is the cached pointer (callers must use it, not their own
// copy, so engine/scenario identity checks hold).
func (c *EngineCache) Get(key uint64, want *Scenario) (*Scenario, *Engine, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		sh.misses++
		return nil, nil, false
	}
	it := el.Value.(*engineItem)
	if want != nil && !scenarioEqual(it.sc, want) {
		sh.misses++
		return nil, nil, false
	}
	sh.hits++
	sh.ll.MoveToFront(el)
	return it.sc, it.eng, true
}

// Add inserts an entry, evicting the shard's least recently used one past
// its capacity. An existing entry for the key is replaced.
func (c *EngineCache) Add(key uint64, sc *Scenario, eng *Engine) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		it := el.Value.(*engineItem)
		it.sc, it.eng = sc, eng
		sh.ll.MoveToFront(el)
		return
	}
	sh.items[key] = sh.ll.PushFront(&engineItem{key: key, sc: sc, eng: eng})
	for sh.ll.Len() > sh.cap {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.items, back.Value.(*engineItem).key)
	}
}

// Len reports the number of live engines across all shards.
func (c *EngineCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// CacheShardStats is one shard's point-in-time counters.
type CacheShardStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	// HitRate is Hits / (Hits+Misses), 0 when the shard is untouched.
	HitRate float64 `json:"hit_rate"`
}

// CacheStats aggregates the cache's counters with a per-shard breakdown.
type CacheStats struct {
	Shards  int   `json:"shards"`
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	// HitRate is the aggregate scenario-level hit rate (distinct from the
	// per-engine coalition bitmask hit rate in EngineStats).
	HitRate  float64           `json:"hit_rate"`
	PerShard []CacheShardStats `json:"per_shard"`
}

// Stats snapshots the hit/miss counters of every shard. Shards are locked
// one at a time, so the snapshot is per-shard consistent, not globally
// atomic — fine for monitoring, which is its only purpose.
func (c *EngineCache) Stats() CacheStats {
	out := CacheStats{Shards: len(c.shards), PerShard: make([]CacheShardStats, len(c.shards))}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s := CacheShardStats{Entries: sh.ll.Len(), Hits: sh.hits, Misses: sh.misses}
		sh.mu.Unlock()
		if t := s.Hits + s.Misses; t > 0 {
			s.HitRate = float64(s.Hits) / float64(t)
		}
		out.PerShard[i] = s
		out.Entries += s.Entries
		out.Hits += s.Hits
		out.Misses += s.Misses
	}
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
	for _, e := range sc.Trust.Edges() {
		w64(uint64(e.From))
		w64(uint64(e.To))
		wf(e.Weight)
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
	ae, be := a.Trust.Edges(), b.Trust.Edges()
	if len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}
