package mechanism

import (
	"fmt"
	"sync"
	"testing"

	"gridvo/internal/assign"
)

// cacheSpec builds a small distinct scenario per index (distinct task
// workloads change the content hash).
func cacheSpec(t testing.TB, i int) *Scenario {
	t.Helper()
	sp := SampleSpec(uint64(i + 1))
	sp.Tasks[0] += float64(i) // force distinct content
	sc, err := sp.Build(uint64(i + 1))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestEngineCacheHitMissAndCollisionGuard(t *testing.T) {
	c := newEngineCache(8, 2)
	a, b := cacheSpec(t, 0), cacheSpec(t, 1)
	ka, kb := ScenarioKey(a), ScenarioKey(b)
	if ka == kb {
		t.Fatal("distinct scenarios hashed identically")
	}
	if _, _, ok := c.Get(ka, a); ok {
		t.Fatal("hit on empty cache")
	}
	c.Add(ka, a, NewEngine(a, assign.Options{}))
	sc, eng, ok := c.Get(ka, a)
	if !ok || sc != a || eng == nil {
		t.Fatalf("miss after add: ok=%v sc=%p", ok, sc)
	}
	// A simulated hash collision (same key, different content) must be a
	// miss, never the wrong engine.
	if _, _, ok := c.Get(ka, b); ok {
		t.Fatal("collision served wrong scenario")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats off: %+v", st)
	}
	if st.Shards != 2 || len(st.PerShard) != 2 {
		t.Fatalf("shard stats off: %+v", st)
	}
}

func TestEngineCacheEvictsPerShardLRU(t *testing.T) {
	// One shard, capacity 2: the third insert evicts the least recently
	// used of the first two.
	c := newEngineCache(2, 1)
	scs := make([]*Scenario, 3)
	keys := make([]uint64, 3)
	for i := range scs {
		scs[i] = cacheSpec(t, i)
		keys[i] = ScenarioKey(scs[i])
		c.Add(keys[i], scs[i], NewEngine(scs[i], assign.Options{}))
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d after 3 adds at cap 2", c.Len())
	}
	if _, _, ok := c.Get(keys[0], scs[0]); ok {
		t.Fatal("LRU entry not evicted")
	}
	for _, i := range []int{1, 2} {
		if _, _, ok := c.Get(keys[i], scs[i]); !ok {
			t.Fatalf("entry %d evicted wrongly", i)
		}
	}
}

func TestEngineCacheShardRounding(t *testing.T) {
	for _, tc := range []struct{ capacity, shards, wantShards int }{
		{64, 3, 4},
		{64, 16, 16},
		{1, 16, 1}, // shards never exceed capacity
		{3, 16, 2}, // rounded down to a power of two ≤ capacity
		{64, 999, 64},
	} {
		c := newEngineCache(tc.capacity, tc.shards)
		if got := len(c.shards); got != tc.wantShards {
			t.Errorf("newEngineCache(%d, %d): %d shards, want %d",
				tc.capacity, tc.shards, got, tc.wantShards)
		}
	}
	if got := len(NewEngineCache(64).shards); got != defaultCacheShards() {
		t.Errorf("NewEngineCache(64): %d shards, want %d", got, defaultCacheShards())
	}
}

// TestEngineCacheConcurrent exercises the sharded cache from many
// goroutines — the race detector's target (CI runs -race over the module).
func TestEngineCacheConcurrent(t *testing.T) {
	const scenarios = 8
	c := newEngineCache(scenarios, 4)
	scs := make([]*Scenario, scenarios)
	keys := make([]uint64, scenarios)
	for i := range scs {
		scs[i] = cacheSpec(t, i)
		keys[i] = ScenarioKey(scs[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				i := (w + it) % scenarios
				sc, eng, ok := c.Get(keys[i], scs[i])
				if !ok {
					c.Add(keys[i], scs[i], NewEngine(scs[i], assign.Options{}))
					continue
				}
				if sc != scs[i] || eng == nil {
					t.Errorf("worker %d: wrong entry for %d", w, i)
					return
				}
				_ = c.Len()
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("concurrent run recorded no hits: %+v", st)
	}
}

// BenchmarkEngineCacheParallel measures lookup throughput under
// cross-core contention — the workload the per-shard mutexes exist for.
func BenchmarkEngineCacheParallel(b *testing.B) {
	for _, shards := range []int{1, defaultCacheShards()} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const scenarios = 16
			c := newEngineCache(64, shards)
			scs := make([]*Scenario, scenarios)
			keys := make([]uint64, scenarios)
			for i := range scs {
				scs[i] = cacheSpec(b, i)
				keys[i] = ScenarioKey(scs[i])
				c.Add(keys[i], scs[i], NewEngine(scs[i], assign.Options{}))
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					i = (i + 1) % scenarios
					if _, _, ok := c.Get(keys[i], scs[i]); !ok {
						b.Error("unexpected miss")
					}
				}
			})
		})
	}
}
