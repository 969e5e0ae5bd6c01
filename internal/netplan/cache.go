package netplan

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/obs"
)

// Cache memoizes solved network plans by a deterministic key over the
// network topology and scheduler options, so repeated plan/run requests do
// not re-run the difference-constraint solve. It is safe for concurrent
// use; the solve for a given key runs at most once (per-key single-flight,
// so solves for different keys never serialize each other), and every hit
// returns the identical *NetworkPlan (callers must treat plans as
// read-only).
//
// A cache built with NewCacheWithCap bounds the number of retained plans:
// when a completed solve pushes the count past the cap, the least recently
// used plan is evicted (hits refresh recency). In-flight solves are never
// evicted — the cap applies to completed entries — and an evicted key
// simply re-solves on its next request. The unbounded NewCache behaviour
// is unchanged; long-running callers (the serving subsystem) use a
// bounded cache so an open-ended model mix cannot grow memory without
// limit.
type Cache struct {
	mu        sync.Mutex
	cap       int                    // max retained completed entries; 0 means unbounded; immutable
	entries   map[string]*cacheEntry // guarded by Cache.mu
	lru       *list.List             // completed-entry keys, front = most recent; guarded by Cache.mu
	hits      uint64                 // guarded by Cache.mu
	misses    uint64                 // guarded by Cache.mu
	coalesced uint64                 // guarded by Cache.mu
	evictions uint64                 // guarded by Cache.mu
	// Counter handles mirroring the lifetime counters above onto an
	// attached obs.Tracer's registry (all nil until SetTracer; nil-safe to
	// Inc); guarded by Cache.mu.
	trHits, trMisses, trCoalesced, trEvictions *obs.Counter
}

// planFn is the solve the cache runs on a miss. A package variable so
// the stampede test can substitute a blocking solve and prove that N
// concurrent cold lookups for one key run it exactly once; production
// code never reassigns it.
var planFn = Plan

// cacheEntry is one in-flight or completed solve; ready closes when np/err
// are set. elem is non-nil exactly while the completed entry is retained
// in the LRU list.
type cacheEntry struct {
	ready chan struct{}
	np    *NetworkPlan
	err   error
	elem  *list.Element
}

// NewCache returns an empty, unbounded plan cache.
func NewCache() *Cache { return NewCacheWithCap(0) }

// NewCacheWithCap returns an empty plan cache retaining at most capEntries
// completed plans under LRU eviction. capEntries <= 0 means unbounded.
func NewCacheWithCap(capEntries int) *Cache {
	if capEntries < 0 {
		capEntries = 0
	}
	return &Cache{
		cap:     capEntries,
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
	}
}

// Default is the package-level cache used by the public vmcu API.
var Default = NewCache()

// Counter families (no label keys) an attached cache publishes on the
// tracer's registry.
const (
	MetricCacheHits      = "vmcu_plancache_hits"
	MetricCacheMisses    = "vmcu_plancache_misses"
	MetricCacheCoalesced = "vmcu_plancache_coalesced_misses"
	MetricCacheEvictions = "vmcu_plancache_evictions"
)

// SetTracer attaches an observability tracer: from now on every hit, miss,
// and eviction also increments the vmcu_plancache_* counters on tr (the
// CacheStats counters are lifetime totals, so the two agree exactly when
// the tracer is attached before first use). A nil tr detaches.
func (c *Cache) SetTracer(tr *obs.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tr == nil {
		c.trHits, c.trMisses, c.trCoalesced, c.trEvictions = nil, nil, nil, nil
		return
	}
	reg := tr.Registry()
	c.trHits = reg.CounterVec(MetricCacheHits, "Plan-cache lookups served by an existing entry.").With()
	c.trMisses = reg.CounterVec(MetricCacheMisses, "Plan-cache lookups that ran a solve.").With()
	c.trCoalesced = reg.CounterVec(MetricCacheCoalesced, "Plan-cache hits that waited on an in-flight solve.").With()
	c.trEvictions = reg.CounterVec(MetricCacheEvictions, "Plan-cache entries evicted by the LRU bound.").With()
}

// Key builds the deterministic cache key for a network/options pair. Every
// field that can change the solved plan is covered: the budget, the split
// pinning, the handoff mode, the objective, and — because MinLatency picks
// its schedule by priced cycles — the full cost-profile coefficients (a
// zero profile and an explicit CortexM4 are distinct keys for the same
// plan, a harmless split).
func Key(net graph.Network, opts Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|budget=%d|split=%+v|handoff=%v|objective=%v|costprofile=%+v",
		net.Name, opts.BudgetBytes, opts.Split, opts.Handoff, opts.Objective, opts.CostProfile)
	for _, m := range net.Modules {
		fmt.Fprintf(&b, "|%+v", m)
	}
	if len(opts.Force) > 0 {
		names := make([]string, 0, len(opts.Force))
		for n := range opts.Force {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "|force:%s=%v", n, opts.Force[n])
		}
	}
	return b.String()
}

// Plan returns the memoized plan for the network/options pair, solving and
// storing it on the first request. The second return reports whether the
// request was served by an existing entry (callers that merely waited on
// another goroutine's in-flight solve count as hits — they did not solve,
// even when that solve failed). Failed solves are not cached; later
// requests for the same key retry.
//
// Every completed request is accounted exactly once in Stats: requests
// that ran the solve count as misses and requests served by an existing
// entry count as hits, on both the success and the error path, so
// Hits+Misses always equals the number of completed Plan calls.
func (c *Cache) Plan(net graph.Network, opts Options) (*NetworkPlan, bool, error) {
	key := Key(net, opts)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		// A lookup that lands on a NOT-yet-ready entry is a coalesced
		// miss: without the per-key single-flight it would have run its
		// own solve (the model-rollout stampede). It is counted on
		// arrival, while the cache can still see the solve in flight.
		select {
		case <-e.ready:
		default:
			c.coalesced++
			c.trCoalesced.Inc()
		}
		c.mu.Unlock()
		<-e.ready
		c.mu.Lock()
		c.hits++
		c.trHits.Inc()
		// Refresh recency, unless the entry was evicted or Reset away while
		// we waited (its plan is still valid for this caller either way).
		if e.elem != nil && c.entries[key] == e {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		if e.err != nil {
			return nil, true, e.err
		}
		return e.np, true, nil
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.np, e.err = planFn(net, opts)
	close(e.ready)
	c.mu.Lock()
	c.misses++
	c.trMisses.Inc()
	if e.err != nil {
		// Drop the failed entry so the next request re-attempts (unless a
		// Reset already replaced the map).
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, false, e.err
	}
	// Retain the completed plan; a Reset while solving means the old map no
	// longer holds this entry, in which case it is not retained at all.
	if c.entries[key] == e {
		e.elem = c.lru.PushFront(key)
		c.evict()
	}
	c.mu.Unlock()
	return e.np, false, nil
}

// evict drops least-recently-used completed entries until the retained
// count fits the cap. Runs with Cache.mu held.
func (c *Cache) evict() {
	if c.cap <= 0 {
		return
	}
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		key := back.Value.(string)
		if e, ok := c.entries[key]; ok && e.elem == back {
			e.elem = nil
			delete(c.entries, key)
		}
		c.lru.Remove(back)
		c.evictions++
		c.trEvictions.Inc()
	}
}

// CacheStats reports a cache's lifetime counters and current size.
type CacheStats struct {
	// Hits are requests served by an existing (possibly in-flight,
	// possibly failed) entry; Misses are requests that ran a solve,
	// successful or not.
	Hits, Misses uint64
	// CoalescedMisses are the lookups that arrived while the entry's
	// solve was still in flight and waited on it instead of solving
	// themselves — the stampede the per-key single-flight absorbs (a
	// model rollout's concurrent cold lookups show up here as N-1
	// coalesced misses per key). Each is counted on arrival and becomes a
	// Hit once the solve completes, so at quiescence they are a subset of
	// Hits.
	CoalescedMisses uint64
	// Evictions counts completed plans dropped by the LRU bound (always 0
	// on an unbounded cache).
	Evictions uint64
	// Len is the current number of entries, retained plans plus in-flight
	// solves. On a bounded quiescent cache Len never exceeds the cap.
	Len int
}

// Stats reports the cache's lifetime hit/miss/eviction counts and its
// current length.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, CoalescedMisses: c.coalesced,
		Evictions: c.evictions, Len: len(c.entries),
	}
}

// Reset drops every cached plan and zeroes the counters. In-flight solves
// complete against the old map and are not re-inserted.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*cacheEntry)
	c.lru.Init()
	c.hits, c.misses, c.coalesced, c.evictions = 0, 0, 0, 0
}
