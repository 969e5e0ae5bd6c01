package netplan

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// tinyNet builds a minimal single-module network whose identity (and thus
// cache key) is parameterized by cmid, so tests can mint distinct keys
// cheaply.
func tinyNet(cmid int) graph.Network {
	return graph.Network{
		Name: fmt.Sprintf("tiny-%d", cmid),
		Modules: []plan.Bottleneck{{
			Name: "M0", H: 8, W: 8, Cin: 4, Cmid: cmid, Cout: 4,
			R: 3, S: 3, S1: 1, S2: 1, S3: 1,
		}},
	}
}

// TestCacheLRUEviction proves the bounded cache retains at most cap plans,
// evicts in least-recently-used order, and re-solves evicted keys.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCacheWithCap(2)
	a, b, d := tinyNet(8), tinyNet(10), tinyNet(12)
	for _, n := range []graph.Network{a, b} {
		if _, hit, err := c.Plan(n, Options{}); err != nil || hit {
			t.Fatalf("cold solve of %s: hit=%v err=%v", n.Name, hit, err)
		}
	}
	if st := c.Stats(); st.Len != 2 || st.Evictions != 0 {
		t.Fatalf("warm cache stats = %+v, want len 2, no evictions", st)
	}

	// Touch a so b becomes the LRU victim, then insert a third plan.
	if _, hit, err := c.Plan(a, Options{}); err != nil || !hit {
		t.Fatalf("touch of %s: hit=%v err=%v, want hit", a.Name, hit, err)
	}
	if _, hit, err := c.Plan(d, Options{}); err != nil || hit {
		t.Fatalf("cold solve of %s: hit=%v err=%v", d.Name, hit, err)
	}
	st := c.Stats()
	if st.Len != 2 || st.Evictions != 1 {
		t.Fatalf("after third insert stats = %+v, want len 2, 1 eviction", st)
	}

	// a was refreshed, so it must still hit; b was evicted and re-solves.
	if _, hit, err := c.Plan(a, Options{}); err != nil || !hit {
		t.Errorf("refreshed entry %s evicted (hit=%v err=%v)", a.Name, hit, err)
	}
	if _, hit, err := c.Plan(b, Options{}); err != nil || hit {
		t.Errorf("evicted entry %s served from cache (hit=%v err=%v)", b.Name, hit, err)
	}
	if st := c.Stats(); st.Len != 2 || st.Evictions != 2 {
		t.Errorf("final stats = %+v, want len 2, 2 evictions", st)
	}
}

// TestCacheUnboundedNeverEvicts pins the NewCache compatibility contract:
// without a cap every plan is retained.
func TestCacheUnboundedNeverEvicts(t *testing.T) {
	c := NewCache()
	const n = 16
	for i := 0; i < n; i++ {
		if _, _, err := c.Plan(tinyNet(4+i), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Len != n || st.Evictions != 0 {
		t.Errorf("unbounded cache stats = %+v, want len %d, no evictions", st, n)
	}
}

// TestCacheBoundedConcurrent hammers a cap-2 cache with many goroutines
// over more keys than the cap, proving the LRU bookkeeping is safe under
// -race and the bound holds once the dust settles.
func TestCacheBoundedConcurrent(t *testing.T) {
	c := NewCacheWithCap(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, _, err := c.Plan(tinyNet(4+(g+i)%5), Options{}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Len > 2 {
		t.Errorf("bound violated: %d entries retained, cap 2", st.Len)
	}
	if st.Hits+st.Misses != 48 {
		t.Errorf("accounting: %d hits + %d misses != 48 requests", st.Hits, st.Misses)
	}
	// Evicting never loses correctness, only work: every key re-solves.
	if _, _, err := c.Plan(tinyNet(4), Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheStampedeCoalesces is the model-rollout stampede scenario: N
// goroutines request the SAME cold key concurrently. The per-key
// single-flight must run the solve exactly once, serve every other
// request from the in-flight entry, and account those as coalesced
// misses. The solve is blocked on a gate until the cache itself has
// counted the other N-1 requests waiting on it, so the concurrency is
// real, not racy luck.
func TestCacheStampedeCoalesces(t *testing.T) {
	const stampede = 16
	var (
		solves int32
		gate   = make(chan struct{})
	)
	realPlan := planFn
	planFn = func(net graph.Network, opts Options) (*NetworkPlan, error) {
		atomic.AddInt32(&solves, 1)
		<-gate // hold the solve until every request has arrived
		return realPlan(net, opts)
	}
	defer func() { planFn = realPlan }()

	c := NewCache()
	net := tinyNet(8)
	var done sync.WaitGroup
	results := make([]bool, stampede)
	for g := 0; g < stampede; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			_, hit, err := c.Plan(net, Options{})
			if err != nil {
				t.Error(err)
			}
			results[g] = hit
		}(g)
	}
	// Release the solve only after the cache has seen every other lookup
	// land on the in-flight entry.
	for start := time.Now(); c.Stats().CoalescedMisses < stampede-1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			close(gate)
			t.Fatalf("only %d of %d lookups coalesced onto the in-flight solve",
				c.Stats().CoalescedMisses, stampede-1)
		}
	}
	close(gate)
	done.Wait()

	if n := atomic.LoadInt32(&solves); n != 1 {
		t.Fatalf("stampede ran %d solves, want exactly 1", n)
	}
	misses := 0
	for _, hit := range results {
		if !hit {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d requests reported miss, want exactly 1 (the solver)", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != stampede-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits", st, stampede-1)
	}
	// Every hit waited on the in-flight solve (the gate guaranteed no
	// request could arrive after it completed), so all must be coalesced.
	if st.CoalescedMisses != stampede-1 {
		t.Fatalf("coalesced misses = %d, want %d", st.CoalescedMisses, stampede-1)
	}
	// A warm hit after the dust settles is NOT coalesced.
	if _, hit, err := c.Plan(net, Options{}); err != nil || !hit {
		t.Fatalf("warm lookup: hit=%v err=%v", hit, err)
	}
	if st := c.Stats(); st.CoalescedMisses != stampede-1 {
		t.Fatalf("warm hit counted as coalesced (%d)", st.CoalescedMisses)
	}
}

// TestCacheKeyCoversObjectiveFields is the same class of bug the Handoff
// field fix closed: every objective-bearing option must reach the cache
// key, or a min-latency plan could be served where a min-peak plan was
// asked for (and vice versa).
func TestCacheKeyCoversObjectiveFields(t *testing.T) {
	net := graph.ImageNet()
	base := Options{}
	distinct := []Options{
		{Objective: MinLatency},
		{Objective: MinLatency, CostProfile: mcu.CortexM7()},
		{Objective: MinLatency, BudgetBytes: 70000},
		{BudgetBytes: 70000},
	}
	seen := map[string]Options{Key(net, base): base}
	for _, o := range distinct {
		k := Key(net, o)
		if prev, dup := seen[k]; dup {
			t.Errorf("options %+v collide with %+v under key %q", o, prev, k)
		}
		seen[k] = o
	}

	// And the collision would be observable: the two objectives solve to
	// different plans, so a shared cache must hand back different results.
	cache := NewCache()
	peak, _, err := cache.Plan(net, base)
	if err != nil {
		t.Fatal(err)
	}
	lat, hit, err := cache.Plan(net, Options{Objective: MinLatency})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("min-latency request served from the min-peak entry")
	}
	if peak.Fingerprint() == lat.Fingerprint() {
		t.Fatal("objectives produced identical plans; collision test is vacuous")
	}
	again, hit, err := cache.Plan(net, Options{Objective: MinLatency})
	if err != nil {
		t.Fatal(err)
	}
	if !hit || again.Fingerprint() != lat.Fingerprint() {
		t.Errorf("min-latency entry not memoized under its own key (hit=%v)", hit)
	}
}
