package evalcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// errAbsent is the compute error get uses to look a key up without filling
// it.
var errAbsent = errors.New("not resident")

// get returns key's resident (or in-flight) value, marking it most recently
// used, and never caches anything itself.
func get[V any](c *Cache[V], key string) (V, bool) {
	v, avoided, _ := c.GetOrComputeErr([]byte(key), func() (V, error) {
		var zero V
		return zero, errAbsent
	})
	return v, avoided
}

// keys lists the resident keys in Entries order.
func keys[V any](c *Cache[V]) []string {
	var out []string
	for _, e := range c.Entries() {
		out = append(out, e.Key)
	}
	return out
}

func TestNewRoundsAndSizes(t *testing.T) {
	cases := []struct {
		name                 string
		c                    *Cache[int]
		wantShards, wantSize int
	}{
		{"defaults", New[int](), defaultShards, defaultCapacity / defaultShards},
		{"power-of-two kept", newCache[int](64, 8), 8, 8},
		{"rounded up", newCache[int](64, 5), 8, 8},
		{"single shard", newCache[int](3, 1), 1, 3},
		{"tiny capacity still holds one entry per shard", newCache[int](2, 16), 16, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			if got := len(c.shards); got != tc.wantShards {
				t.Fatalf("%d shards, want %d", got, tc.wantShards)
			}
			for i, s := range c.shards {
				if s.capacity != tc.wantSize {
					t.Fatalf("shard %d holds %d entries, want %d", i, s.capacity, tc.wantSize)
				}
			}
			c.Put("k", 1)
			if v, ok := get(c, "k"); !ok || v != 1 {
				t.Fatalf("get after Put = (%d, %v), want (1, true)", v, ok)
			}
		})
	}
}

// Keys must spread across shards: with many random-ish keys no shard may
// stay empty and no shard may hold the bulk of the population.
func TestShardDistribution(t *testing.T) {
	c := newCache[int](1<<14, 16)
	const n = 4096
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("net%d|<dla, %d, %d>", i, 32*(i%129), 8*(i%9)), i)
	}
	total := 0
	for si, s := range c.shards {
		l := s.ll.Len()
		total += l
		if l == 0 {
			t.Errorf("shard %d is empty after %d inserts", si, n)
		}
		if l > n/4 {
			t.Errorf("shard %d holds %d of %d entries: hashing is skewed", si, l, n)
		}
	}
	if total != n {
		t.Fatalf("resident entries = %d, want %d", total, n)
	}
}

func TestLRUEvictionAtCapacity(t *testing.T) {
	// One shard makes the recency order deterministic and observable.
	c := newCache[int](3, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	// Touch "a" so "b" becomes least recently used.
	if _, ok := get(c, "a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if got, want := fmt.Sprint(keys(c)), "[b c a]"; got != want {
		t.Fatalf("LRU order %s, want %s", got, want)
	}
	c.Put("d", 4)
	if got, want := fmt.Sprint(keys(c)), "[c a d]"; got != want {
		t.Fatalf("after evicting: LRU order %s, want %s (b least recently used)", got, want)
	}
	// Re-putting an existing key refreshes in place, never grows past cap.
	c.Put("c", 33)
	if v, _ := get(c, "c"); v != 33 {
		t.Errorf("refresh lost: c = %d, want 33", v)
	}
	if got, want := fmt.Sprint(keys(c)), "[a d c]"; got != want {
		t.Errorf("after refresh: LRU order %s, want %s", got, want)
	}
}

// Concurrent mixed get/put/GetOrComputeErr over a shared key range; correctness
// is checked by -race plus value integrity (a key always maps to its own
// deterministic value).
func TestConcurrentMixedAccess(t *testing.T) {
	c := newCache[int](256, 8)
	const (
		goroutines = 16
		iters      = 2000
		keys       = 512 // twice the capacity, so eviction churns throughout
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g*31 + i*7) % keys
				key := fmt.Sprintf("k%d", k)
				switch i % 3 {
				case 0:
					c.Put(key, k)
				case 1:
					if v, ok := get(c, key); ok && v != k {
						t.Errorf("key %s holds %d, want %d", key, v, k)
						return
					}
				default:
					v, _, err := c.GetOrComputeErr([]byte(key), func() (int, error) { return k, nil })
					if err != nil || v != k {
						t.Errorf("GetOrComputeErr(%s) = %d, %v, want %d", key, v, err, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(c.Entries()); got > 256 {
		t.Errorf("%d resident entries exceed capacity 256", got)
	}
}

// N concurrent misses on one key must run the compute function exactly once.
func TestInflightDedup(t *testing.T) {
	c := newCache[int](8, 1)
	const waiters = 16
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, waiters)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, _ = c.GetOrComputeErr([]byte("k"), func() (int, error) {
			computes.Add(1)
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started // the computing caller is now inside compute()
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, avoided, _ := c.GetOrComputeErr([]byte("k"), func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if !avoided {
				t.Errorf("waiter %d recomputed instead of deduplicating", i)
			}
			results[i] = v
		}(i)
	}
	// Wait until every waiter is parked on the in-flight call, then release.
	for c.waits.Value() < waiters-1 {
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	if w := c.waits.Value(); w != waiters-1 {
		t.Errorf("%d lookups waited on the in-flight compute, want %d", w, waiters-1)
	}
}

// A panicking or failing compute must not wedge waiters or leave the key
// poisoned: nothing is cached, and the next caller computes afresh.
func TestComputePanicRecovers(t *testing.T) {
	c := newCache[int](8, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate to the computing caller")
			}
		}()
		c.GetOrComputeErr([]byte("k"), func() (int, error) { panic("boom") })
	}()
	v, avoided, err := c.GetOrComputeErr([]byte("k"), func() (int, error) { return 7, nil })
	if v != 7 || avoided || err != nil {
		t.Fatalf("retry after panic = (%d, %v, %v), want (7, false, nil)", v, avoided, err)
	}

	boom := errors.New("boom")
	if _, avoided, err := c.GetOrComputeErr([]byte("e"), func() (int, error) { return 0, boom }); err != boom || avoided {
		t.Fatalf("failing compute = (%v, %v), want (false, %v)", avoided, err, boom)
	}
	if _, ok := get(c, "e"); ok {
		t.Fatal("a failed compute was cached")
	}
	v, avoided, err = c.GetOrComputeErr([]byte("e"), func() (int, error) { return 9, nil })
	if v != 9 || avoided || err != nil {
		t.Fatalf("retry after error = (%d, %v, %v), want (9, false, nil)", v, avoided, err)
	}

	// A waiter parked on a compute that fails retries with its own compute.
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrComputeErr([]byte("w"), func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
	}()
	<-started
	type outcome struct {
		v       int
		avoided bool
	}
	waiter := make(chan outcome)
	go func() {
		v, avoided, _ := c.GetOrComputeErr([]byte("w"), func() (int, error) { return 5, nil })
		waiter <- outcome{v, avoided}
	}()
	for c.waits.Value() < 1 {
	}
	close(release)
	<-done
	if got := <-waiter; got != (outcome{5, false}) {
		t.Fatalf("waiter after a failed compute = %+v, want {v:5 avoided:false}", got)
	}
}
