package evalcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nasaic/internal/cachefile"
)

// fillCache populates a cache with n deterministic float-bearing values.
func fillCache(c *Cache[float64], n int) {
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("net%d|<dla, %d, %d>", i, 32*(i%129), 8*(i%9)), float64(i)*1.0000000000000002/3)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.cache")
	const key = "cfg-v1"

	c1 := New[float64](Options{Capacity: 1 << 10, Shards: 8})
	fillCache(c1, 300)
	if err := SaveFile(c1, path, key); err != nil {
		t.Fatal(err)
	}

	c2 := New[float64](Options{Capacity: 1 << 10, Shards: 8})
	n, err := LoadFile(c2, path, key)
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("loaded %d entries, want 300", n)
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("net%d|<dla, %d, %d>", i, 32*(i%129), 8*(i%9))
		want := float64(i) * 1.0000000000000002 / 3
		got, ok := c2.Get(k)
		if !ok {
			t.Fatalf("key %q missing after reload", k)
		}
		if got != want {
			t.Fatalf("key %q: value %v != saved %v (bit-exactness violated)", k, got, want)
		}
	}

	// Save → load → save must be byte-identical: Entries snapshots per-shard
	// LRU order, the shard hash is stable, and replaying Put reconstructs the
	// same recency — so the warm tier is a fixpoint.
	path2 := filepath.Join(dir, "c2.cache")
	if err := SaveFile(c2, path2, key); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("save/load/save produced a different snapshot file")
	}
}

func TestLoadMissingFileIsColdStart(t *testing.T) {
	c := New[float64](Options{})
	n, err := LoadFile(c, filepath.Join(t.TempDir(), "absent.cache"), "k")
	if err == nil || n != 0 {
		t.Fatalf("missing file: n=%d err=%v, want 0 and an error", n, err)
	}
	if c.Len() != 0 {
		t.Fatalf("cache not empty after failed load: %d entries", c.Len())
	}
}

// Every damaged or mismatched file must load nothing and leave the cache
// fully usable — the warm tier degrades to cold, never crashes or serves
// garbage.
func TestLoadFailureModesAreCold(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.cache")
	const key = "cfg-v1"
	src := New[float64](Options{Capacity: 1 << 10, Shards: 4})
	fillCache(src, 64)
	if err := SaveFile(src, path, key); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mutate  func() []byte
		loadKey string
		wantErr error
	}{
		{"truncated", func() []byte { return good[:len(good)/2] }, key, cachefile.ErrCorrupt},
		{"flipped byte", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)/2] ^= 0x40
			return b
		}, key, nil}, // any sentinel is fine; must just fail
		{"config mismatch", func() []byte { return good }, "cfg-v2", cachefile.ErrConfig},
		{"gob garbage", func() []byte {
			return cachefile.Encode(Kind, key, []byte("not gob"))
		}, key, cachefile.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, tc.name+".cache")
			if err := os.WriteFile(p, tc.mutate(), 0o644); err != nil {
				t.Fatal(err)
			}
			c := New[float64](Options{})
			n, err := LoadFile(c, p, tc.loadKey)
			if err == nil {
				t.Fatal("damaged file loaded without error")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if n != 0 || c.Len() != 0 {
				t.Fatalf("cold start violated: n=%d len=%d", n, c.Len())
			}
			// The cache must stay fully usable after the failed load.
			c.Put("k", 1.5)
			if v, ok := c.Get("k"); !ok || v != 1.5 {
				t.Fatal("cache unusable after failed load")
			}
		})
	}
}

// Loading into a warm cache refreshes existing keys without inflating Len.
func TestLoadIntoWarmCacheKeepsLenExact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.cache")
	src := New[float64](Options{Capacity: 1 << 10, Shards: 4})
	fillCache(src, 50)
	if err := SaveFile(src, path, "k"); err != nil {
		t.Fatal(err)
	}
	dst := New[float64](Options{Capacity: 1 << 10, Shards: 4})
	fillCache(dst, 30) // overlapping prefix
	if _, err := LoadFile(dst, path, "k"); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.Len(), 50; got != want {
		t.Fatalf("Len after overlapping load = %d, want %d", got, want)
	}
	if got, want := dst.Len(), dst.lenScan(); got != want {
		t.Fatalf("Len counter %d diverged from scan %d", got, want)
	}
}

// The O(1) Len counter must track the locked full-shard scan exactly through
// inserts, hits, overwrites and evictions.
func TestLenCounterMatchesScan(t *testing.T) {
	c := New[float64](Options{Capacity: 64, Shards: 4})
	check := func(stage string) {
		t.Helper()
		if got, want := c.Len(), c.lenScan(); got != want {
			t.Fatalf("%s: Len() = %d, scan = %d", stage, got, want)
		}
	}
	check("empty")
	for i := 0; i < 200; i++ { // far past capacity: evictions must decrement
		c.Put(fmt.Sprintf("k%d", i), float64(i))
	}
	check("after evicting inserts")
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("k%d", i%10), float64(i)) // overwrites
		c.Get(fmt.Sprintf("k%d", i))
		c.GetOrComputeErr(fmt.Sprintf("g%d", i%7), func() (float64, error) { return 1, nil })
	}
	check("after mixed traffic")
	if c.Len() > 64 {
		t.Fatalf("Len %d exceeds capacity 64", c.Len())
	}
}
