// Package nasaic is the public, context-first API of the NASAIC
// co-exploration engine — a Go reproduction of "Co-Exploration of Neural
// Architectures and Heterogeneous ASIC Accelerator Designs Targeting
// Multiple Tasks" (Yang et al., DAC 2020).
//
// The central entry point is Run, which explores one of the paper's
// multi-task workloads and returns the best (architectures, accelerator)
// pair found:
//
//	res, err := nasaic.Run(ctx,
//		nasaic.WithWorkload("W1"),
//		nasaic.WithEpisodes(500),
//		nasaic.WithSeed(1),
//	)
//
// Cancellation and deadlines are honoured promptly: the context is threaded
// through the episode loop, the hardware-evaluation worker pool, and the HAP
// scheduler's solvers, and no goroutines are left behind. A cancelled Run
// returns the partial Result accumulated so far together with the context's
// error. Uncancelled runs are bit-identical for a fixed seed regardless of
// worker counts, caches, or event subscribers.
//
// Progress can be streamed per episode through WithEventHandler or
// WithEventChannel; each Event carries the episode's reward, the best-so-far
// solution, and the evaluator's cache/memo counters. Several concurrent runs
// inside one process can share one memo bundle via
// NewSharedMemos/WithSharedMemos, and WithCacheDir persists a run's bundle
// (the cached functions are pure, so neither ever changes results).
//
// The same package exposes the paper's evaluation artifacts (Table I/II,
// Fig. 1/6) as context-aware wrappers used by the cmd/compare and cmd/dse
// binaries, and the cmd/nasaicd HTTP service exposes Run as a job API
// (submit / stream / cancel) on top of this package.
package nasaic
