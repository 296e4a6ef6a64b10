package evalcache

import (
	"container/list"
	"sync"

	"nasaic/internal/stats"
)

// Default sizing. A full paper-budget NASAIC run touches ~5,500 distinct
// (architectures, design) points, so the default capacity holds several runs
// without eviction while bounding worst-case memory.
const (
	DefaultCapacity = 1 << 14
	DefaultShards   = 16
)

// Options configures a Cache.
type Options struct {
	// Capacity is the total entry budget across all shards; <=0 selects
	// DefaultCapacity. The budget is split evenly per shard, rounding up so
	// the effective capacity is never below the requested one; it can exceed
	// it by at most N-1 entries, where N is the power-of-two-rounded shard
	// count (each shard holds at least 1).
	Capacity int
	// Shards is the number of independently locked segments; <=0 selects
	// DefaultShards. Rounded up to a power of two.
	Shards int
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      int64 // lookups served from a resident entry
	Misses    int64 // lookups that ran the compute function
	Dedups    int64 // lookups that waited on another caller's in-flight compute
	Evictions int64 // entries dropped by the LRU policy
	Size      int   // resident entries at snapshot time
}

// Requests returns the total number of lookups observed.
func (s Stats) Requests() int64 { return s.Hits + s.Misses + s.Dedups }

// HitPct returns the percentage of lookups that avoided a computation
// (resident hits plus in-flight dedups), or 0 with no traffic.
func (s Stats) HitPct() float64 {
	return stats.Pct(s.Hits+s.Dedups, s.Requests())
}

// entry is one resident key/value pair; stored in the shard's LRU list.
type entry[V any] struct {
	key string
	val V
}

// call tracks one in-flight computation other callers can wait on.
type call[V any] struct {
	wg  sync.WaitGroup
	val V
	ok  bool // false when the compute function panicked
}

type shard[V any] struct {
	// mu is on the hot path of every hardware evaluation: no IO and no
	// fsync may ever run under it (enforced by nasaiclint); singleflight
	// computes run with the shard lock released.
	mu       sync.Mutex //lint:guard journal,io
	capacity int
	items    map[string]*list.Element // key → *entry element in ll
	ll       *list.List               // front = most recently used
	inflight map[string]*call[V]
}

// Cache is a sharded LRU memoization cache keyed by canonical strings.
// All methods are safe for concurrent use.
type Cache[V any] struct {
	shards []*shard[V]
	mask   uint64

	hits      stats.Counter
	misses    stats.Counter
	dedups    stats.Counter
	evictions stats.Counter
	size      stats.Counter // resident entries across all shards
}

// New builds a cache with the given options.
func New[V any](opts Options) *Cache[V] {
	capTotal := opts.Capacity
	if capTotal <= 0 {
		capTotal = DefaultCapacity
	}
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round the shard count up to a power of two so selection is a mask.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	perShard := (capTotal + pow - 1) / pow
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{shards: make([]*shard[V], pow), mask: uint64(pow - 1)}
	for i := range c.shards {
		c.shards[i] = &shard[V]{
			capacity: perShard,
			items:    make(map[string]*list.Element),
			ll:       list.New(),
			inflight: make(map[string]*call[V]),
		}
	}
	return c
}

// shardFor hashes the key (FNV-1a, 64-bit) onto a shard.
func (c *Cache[V]) shardFor(key string) *shard[V] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return c.shards[h&c.mask]
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*entry[V]).val, true
	}
	c.misses.Inc()
	var zero V
	return zero, false
}

// Put inserts or refreshes key, evicting the least recently used entry of the
// key's shard when that shard is at capacity.
func (c *Cache[V]) Put(key string, val V) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	c.putLocked(s, key, val)
}

func (c *Cache[V]) putLocked(s *shard[V], key string, val V) {
	if el, ok := s.items[key]; ok {
		el.Value.(*entry[V]).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&entry[V]{key: key, val: val})
	c.size.Inc()
	if s.ll.Len() > s.capacity {
		last := s.ll.Back()
		s.ll.Remove(last)
		delete(s.items, last.Value.(*entry[V]).key)
		c.evictions.Inc()
		c.size.Add(-1)
	}
}

// GetOrComputeErr returns the value for key, running compute on a miss. The
// returned flag reports whether this call avoided the computation: true for
// a resident hit or a wait on another caller's in-flight compute, false when
// this call ran compute itself. Concurrent callers that miss on the same key
// share a single computation (singleflight). When compute returns an error
// (typically one that honours a context) or panics, nothing is cached, the
// error or panic goes to the computing caller, and waiters retry with their
// own compute function.
func (c *Cache[V]) GetOrComputeErr(key string, compute func() (V, error)) (V, bool, error) {
	s := c.shardFor(key)
	for {
		s.mu.Lock()
		if el, ok := s.items[key]; ok {
			s.ll.MoveToFront(el)
			c.hits.Inc()
			v := el.Value.(*entry[V]).val
			s.mu.Unlock()
			return v, true, nil
		}
		if cl, ok := s.inflight[key]; ok {
			c.dedups.Inc()
			s.mu.Unlock()
			cl.wg.Wait()
			if cl.ok {
				return cl.val, true, nil
			}
			// The computing caller failed or panicked; race to recompute
			// (a caller whose own context is done fails fast in compute).
			continue
		}
		cl := &call[V]{}
		cl.wg.Add(1)
		s.inflight[key] = cl
		c.misses.Inc()
		s.mu.Unlock()

		var err error
		func() {
			defer func() {
				s.mu.Lock()
				if cl.ok {
					c.putLocked(s, key, cl.val)
				}
				delete(s.inflight, key)
				s.mu.Unlock()
				cl.wg.Done()
			}()
			cl.val, err = compute()
			cl.ok = err == nil
		}()
		return cl.val, false, err
	}
}

// Len returns the number of resident entries. It reads a running atomic
// counter maintained by insert/evict, so it is O(1) — safe to call on hot
// paths like per-episode stats snapshots — rather than locking every shard.
func (c *Cache[V]) Len() int {
	return int(c.size.Value())
}

// lenScan counts resident entries by locking and walking every shard — the
// O(shards) ground truth the Len counter is regression-tested against.
func (c *Cache[V]) lenScan() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the effectiveness counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Dedups:    c.dedups.Value(),
		Evictions: c.evictions.Value(),
		Size:      c.Len(),
	}
}

// NumShards returns the shard count after power-of-two rounding.
func (c *Cache[V]) NumShards() int { return len(c.shards) }

// shardLens reports per-shard entry counts (test hook for distribution).
func (c *Cache[V]) shardLens() []int {
	out := make([]int, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = s.ll.Len()
		s.mu.Unlock()
	}
	return out
}
