// Package evalcache provides the sharded, concurrency-safe memoization layer
// for hardware evaluations: a generic string-keyed LRU cache with per-shard
// locking and singleflight-style in-flight deduplication, so N concurrent
// misses on the same key cost exactly one computation.
//
// The package exists because NASAIC's RL controller resamples overlapping
// (architecture, accelerator-design) points across thousands of episodes:
// as the policy converges, most hardware evaluations repeat earlier ones,
// and the MAESTRO cost model plus HAP scheduling they trigger dominates the
// search's wall clock. The paper's non-blocking trainer applies "never
// re-evaluate what you already know" to the accuracy path; this package
// extends it to the much hotter mapping-and-scheduling path.
//
// Values must be deterministic functions of their key and are shared between
// callers on a hit, so cached values must be treated as immutable. Keys are
// canonical fingerprints (accel.Design.Fingerprint plus dnn.Network
// signatures); two semantically identical inputs must produce identical
// keys for deduplication to fire. A lookup takes the key as bytes and does
// not copy it, so a hit allocates nothing; a miss makes the string the cache
// keeps.
//
// The cache only memoizes. Its callers count hits and computations
// (core.EvalStats), and core.Memos persists it: Entries snapshots the
// resident entries in LRU order, and replaying them through Put restores
// a warm cache in a later process.
package evalcache
