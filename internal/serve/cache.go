package serve

import (
	"container/list"
	"sync"

	"ggpdes"
	"ggpdes/internal/telemetry"
)

// resultCache is a bounded LRU mapping Config.CacheKey values to
// completed Results, and the only place a result lives: a done job holds
// its key and resolves the result here, so this bound is the one bound
// on result memory. Runs are deterministic functions of the canonical
// config, so a hit is exactly the result a fresh run would produce.
// Entries are immutable once inserted: readers share the *Results
// pointer and must not mutate it.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evictions *telemetry.Counter
	entries   *telemetry.Gauge
}

type cacheEntry struct {
	key string
	res *ggpdes.Results
}

// newResultCache builds a cache holding at most max (≥ 1) entries.
func newResultCache(max int, reg *telemetry.Registry) *resultCache {
	return &resultCache{
		max:       max,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      reg.Counter(MetricCacheHits),
		misses:    reg.Counter(MetricCacheMisses),
		evictions: reg.Counter(MetricCacheEvictions),
		entries:   reg.Gauge(MetricCacheEntries),
	}
}

// get returns the cached result for key, recording a hit or miss.
func (c *resultCache) get(key string) (*ggpdes.Results, bool) {
	res, ok := c.peek(key)
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return res, ok
}

// peek is get without the hit/miss accounting: for re-checks that
// already recorded the lookup (Submit's under-lock race close) and for
// reading a done job's result, which is no lookup at all.
func (c *resultCache) peek(key string) (*ggpdes.Results, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores a completed result, evicting the least recently used
// entry past the bound.
func (c *resultCache) put(key string, res *ggpdes.Results) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
	c.entries.Set(float64(c.ll.Len()))
}

// len reports the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
