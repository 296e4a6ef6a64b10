package evalcache

import (
	"container/list"
	"sync"

	"nasaic/internal/stats"
)

// Sizing of New. A full paper-budget NASAIC run touches ~5,500 distinct
// (architectures, design) points, so the capacity holds several runs without
// eviction while bounding worst-case memory.
const (
	defaultCapacity = 1 << 14
	defaultShards   = 16
)

// Entry is one key/value pair: an element of a shard's LRU list and of an
// Entries snapshot.
type Entry[V any] struct {
	Key string
	Val V
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
	items    map[string]*list.Element // key → *Entry element in ll
	ll       *list.List               // front = most recently used
	inflight map[string]*call[V]
}

// Cache is a sharded LRU memoization cache keyed by canonical strings.
// All methods are safe for concurrent use.
type Cache[V any] struct {
	shards []*shard[V]
	mask   uint64

	// waits counts lookups that waited on another caller's in-flight
	// compute. Only tests read it, to know their waiters are parked.
	waits stats.Counter
}

// New returns an empty cache of defaultCapacity entries over defaultShards
// shards.
func New[V any]() *Cache[V] {
	return newCache[V](defaultCapacity, defaultShards)
}

// newCache builds a cache of at least capacity entries over shards shards,
// rounded up to a power of two so selection is a mask. The budget is split
// evenly per shard, rounding up; each shard holds at least one entry.
func newCache[V any](capacity, shards int) *Cache[V] {
	pow := 1
	for pow < shards {
		pow <<= 1
	}
	perShard := max((capacity+pow-1)/pow, 1)
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

// hash is 64-bit FNV-1a over the key's bytes, string and []byte alike.
func hash[K string | []byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// Put inserts or refreshes key, evicting the least recently used entry of the
// key's shard when that shard is at capacity.
func (c *Cache[V]) Put(key string, val V) {
	s := c.shards[hash(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(key, val)
}

func (s *shard[V]) putLocked(key string, val V) {
	if el, ok := s.items[key]; ok {
		el.Value.(*Entry[V]).Val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&Entry[V]{Key: key, Val: val})
	if s.ll.Len() > s.capacity {
		last := s.ll.Back()
		s.ll.Remove(last)
		delete(s.items, last.Value.(*Entry[V]).Key)
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
//
// The key is looked up without being copied, so a hit allocates nothing;
// only the caller that computes makes the string the cache keeps. key is
// not retained: the caller may reuse its storage once the call returns, but
// must not modify it while the call runs.
func (c *Cache[V]) GetOrComputeErr(key []byte, compute func() (V, error)) (V, bool, error) {
	s := c.shards[hash(key)&c.mask]
	for {
		s.mu.Lock()
		if el, ok := s.items[string(key)]; ok {
			s.ll.MoveToFront(el)
			v := el.Value.(*Entry[V]).Val
			s.mu.Unlock()
			return v, true, nil
		}
		if cl, ok := s.inflight[string(key)]; ok {
			c.waits.Inc()
			s.mu.Unlock()
			cl.wg.Wait()
			if cl.ok {
				return cl.val, true, nil
			}
			// The computing caller failed or panicked; race to recompute
			// (a caller whose own context is done fails fast in compute).
			continue
		}
		owned := string(key)
		cl := &call[V]{}
		cl.wg.Add(1)
		s.inflight[owned] = cl
		s.mu.Unlock()

		var err error
		func() {
			defer func() {
				s.mu.Lock()
				if cl.ok {
					s.putLocked(owned, cl.val)
				}
				delete(s.inflight, owned)
				s.mu.Unlock()
				cl.wg.Done()
			}()
			cl.val, err = compute()
			cl.ok = err == nil
		}()
		return cl.val, false, err
	}
}

// Entries snapshots the resident entries in least-to-most recently used
// order per shard, so replaying them through Put reconstructs each shard's
// LRU recency. The snapshot is taken shard by shard: concurrent writers can
// add entries the snapshot misses, which only means they are recomputed
// after a reload — never that a stale value is served.
func (c *Cache[V]) Entries() []Entry[V] {
	var out []Entry[V]
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Back(); el != nil; el = el.Prev() {
			out = append(out, *el.Value.(*Entry[V]))
		}
		s.mu.Unlock()
	}
	return out
}
