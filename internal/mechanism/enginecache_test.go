package mechanism

import (
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
	c := NewEngineCache(8)
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
}

func TestEngineCacheEvictsLRU(t *testing.T) {
	// Capacity 2: touching the first entry makes the second the least
	// recently used, so the third insert evicts the second.
	c := NewEngineCache(2)
	scs := make([]*Scenario, 3)
	keys := make([]uint64, 3)
	for i := range scs {
		scs[i] = cacheSpec(t, i)
		keys[i] = ScenarioKey(scs[i])
	}
	for i := 0; i < 2; i++ {
		c.Add(keys[i], scs[i], NewEngine(scs[i], assign.Options{}))
	}
	if _, _, ok := c.Get(keys[0], scs[0]); !ok {
		t.Fatal("entry 0 missing before any eviction")
	}
	c.Add(keys[2], scs[2], NewEngine(scs[2], assign.Options{}))
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("%d entries after 3 adds at cap 2", n)
	}
	if _, _, ok := c.Get(keys[1], scs[1]); ok {
		t.Fatal("LRU entry not evicted")
	}
	for _, i := range []int{0, 2} {
		if _, _, ok := c.Get(keys[i], scs[i]); !ok {
			t.Fatalf("entry %d evicted wrongly", i)
		}
	}
}

// TestEngineCacheHoldsCapacity: the cache keeps exactly capacity
// engines whatever the keys' bits — here 64 keys whose low six bits are
// all zero, which a cache split by the keys' low bits would crowd into
// one slot.
func TestEngineCacheHoldsCapacity(t *testing.T) {
	const capacity = 64
	c := NewEngineCache(capacity)
	sc := cacheSpec(t, 0)
	engs := make([]*Engine, capacity)
	for i := range engs {
		engs[i] = NewEngine(sc, assign.Options{})
		c.Add(uint64(i)<<6, sc, engs[i])
	}
	if n := c.Stats().Entries; n != capacity {
		t.Fatalf("%d entries after %d adds at capacity %d", n, capacity, capacity)
	}
	for i, want := range engs {
		if _, eng, ok := c.Get(uint64(i)<<6, sc); !ok || eng != want {
			t.Fatalf("key %d<<6: ok=%v, engine %p, want %p", i, ok, eng, want)
		}
	}
	if st := c.Stats(); st.Hits != capacity || st.Misses != 0 {
		t.Fatalf("stats off: %+v", st)
	}
	// One more key evicts exactly one entry: the least recently used.
	c.Add(capacity<<6, sc, NewEngine(sc, assign.Options{}))
	if n := c.Stats().Entries; n != capacity {
		t.Fatalf("%d entries past capacity %d", n, capacity)
	}
	if _, _, ok := c.Get(0, sc); ok {
		t.Fatal("least recently used entry not evicted")
	}
}

// TestEngineCacheConcurrent exercises the cache from many goroutines —
// the race detector's target (CI runs -race over the module).
func TestEngineCacheConcurrent(t *testing.T) {
	const scenarios = 8
	c := NewEngineCache(scenarios)
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
				_ = c.Stats()
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
// cross-core contention on the cache's one lock.
func BenchmarkEngineCacheParallel(b *testing.B) {
	const scenarios = 16
	c := NewEngineCache(64)
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
}
