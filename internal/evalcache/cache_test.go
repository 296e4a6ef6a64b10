package evalcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewRoundsAndSizes(t *testing.T) {
	cases := []struct {
		name       string
		opts       Options
		wantShards int
	}{
		{"defaults", Options{}, DefaultShards},
		{"power-of-two kept", Options{Shards: 8}, 8},
		{"rounded up", Options{Shards: 5}, 8},
		{"single shard", Options{Shards: 1}, 1},
		{"tiny capacity still holds one entry per shard", Options{Capacity: 2, Shards: 16}, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int](tc.opts)
			if got := c.NumShards(); got != tc.wantShards {
				t.Fatalf("NumShards = %d, want %d", got, tc.wantShards)
			}
			c.Put("k", 1)
			if v, ok := c.Get("k"); !ok || v != 1 {
				t.Fatalf("Get after Put = (%d, %v), want (1, true)", v, ok)
			}
		})
	}
}

// Keys must spread across shards: with many random-ish keys no shard may
// stay empty and no shard may hold the bulk of the population.
func TestShardDistribution(t *testing.T) {
	c := New[int](Options{Capacity: 1 << 14, Shards: 16})
	const n = 4096
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("net%d|<dla, %d, %d>", i, 32*(i%129), 8*(i%9)), i)
	}
	lens := c.shardLens()
	total := 0
	for si, l := range lens {
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
	c := New[int](Options{Capacity: 3, Shards: 1})
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	// Touch "a" so "b" becomes least recently used.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put("d", 4)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived eviction", k)
		}
	}
	if got := c.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("Evictions = %d, want 1", ev)
	}
	// Re-putting an existing key refreshes in place, never grows past cap.
	c.Put("c", 33)
	if v, _ := c.Get("c"); v != 33 {
		t.Errorf("refresh lost: c = %d, want 33", v)
	}
	if got := c.Len(); got != 3 {
		t.Errorf("Len after refresh = %d, want 3", got)
	}
}

// Concurrent mixed get/put/GetOrComputeErr over a shared key range; correctness
// is checked by -race plus value integrity (a key always maps to its own
// deterministic value).
func TestConcurrentMixedAccess(t *testing.T) {
	c := New[int](Options{Capacity: 256, Shards: 8})
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
					if v, ok := c.Get(key); ok && v != k {
						t.Errorf("key %s holds %d, want %d", key, v, k)
						return
					}
				default:
					v, _, err := c.GetOrComputeErr(key, func() (int, error) { return k, nil })
					if err != nil || v != k {
						t.Errorf("GetOrComputeErr(%s) = %d, %v, want %d", key, v, err, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got > 256 {
		t.Errorf("Len = %d exceeds capacity 256", got)
	}
	st := c.Stats()
	if st.Requests() == 0 {
		t.Error("no requests recorded")
	}
}

// N concurrent misses on one key must run the compute function exactly once.
func TestInflightDedup(t *testing.T) {
	c := New[int](Options{Capacity: 8, Shards: 1})
	const waiters = 16
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, waiters)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, _ = c.GetOrComputeErr("k", func() (int, error) {
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
			v, avoided, _ := c.GetOrComputeErr("k", func() (int, error) {
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
	for c.Stats().Dedups < waiters-1 {
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
	st := c.Stats()
	if st.Misses != 1 || st.Dedups != waiters-1 {
		t.Errorf("stats = %+v, want Misses=1 Dedups=%d", st, waiters-1)
	}
}

// A panicking or failing compute must not wedge waiters or leave the key
// poisoned: nothing is cached, and the next caller computes afresh.
func TestComputePanicRecovers(t *testing.T) {
	c := New[int](Options{Capacity: 8, Shards: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate to the computing caller")
			}
		}()
		c.GetOrComputeErr("k", func() (int, error) { panic("boom") })
	}()
	v, avoided, err := c.GetOrComputeErr("k", func() (int, error) { return 7, nil })
	if v != 7 || avoided || err != nil {
		t.Fatalf("retry after panic = (%d, %v, %v), want (7, false, nil)", v, avoided, err)
	}

	boom := errors.New("boom")
	if _, avoided, err := c.GetOrComputeErr("e", func() (int, error) { return 0, boom }); err != boom || avoided {
		t.Fatalf("failing compute = (%v, %v), want (false, %v)", avoided, err, boom)
	}
	if _, ok := c.Get("e"); ok {
		t.Fatal("a failed compute was cached")
	}
	v, avoided, err = c.GetOrComputeErr("e", func() (int, error) { return 9, nil })
	if v != 9 || avoided || err != nil {
		t.Fatalf("retry after error = (%d, %v, %v), want (9, false, nil)", v, avoided, err)
	}

	// A waiter parked on a compute that fails retries with its own compute.
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrComputeErr("w", func() (int, error) {
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
		v, avoided, _ := c.GetOrComputeErr("w", func() (int, error) { return 5, nil })
		waiter <- outcome{v, avoided}
	}()
	for c.Stats().Dedups < 1 {
	}
	close(release)
	<-done
	if got := <-waiter; got != (outcome{5, false}) {
		t.Fatalf("waiter after a failed compute = %+v, want {v:5 avoided:false}", got)
	}
}

// Counter accuracy under a deterministic single-threaded access pattern.
func TestCounterAccuracy(t *testing.T) {
	c := New[string](Options{Capacity: 2, Shards: 1})

	c.Get("a")                                                         // miss
	c.Put("a", "v")                                                    //
	c.Get("a")                                                         // hit
	c.GetOrComputeErr("a", func() (string, error) { return "x", nil }) // hit (no recompute)
	c.GetOrComputeErr("b", func() (string, error) { return "w", nil }) // miss + compute
	c.Get("b")                                                         // hit
	c.Put("c", "u")                                                    // evicts "a" (LRU)
	c.Get("a")                                                         // miss

	st := c.Stats()
	want := Stats{Hits: 3, Misses: 3, Dedups: 0, Evictions: 1, Size: 2}
	if st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
	if st.Requests() != 6 {
		t.Errorf("Requests = %d, want 6", st.Requests())
	}
	if pct := st.HitPct(); pct != 50 {
		t.Errorf("HitPct = %v, want 50", pct)
	}
	if (Stats{}).HitPct() != 0 {
		t.Error("HitPct of empty stats should be 0")
	}
}
