// Package cluster is nasaicd's horizontal execution sharding: a coordinator
// replica that accepts the existing public /v1/jobs API unchanged and
// dispatches each granted job to one of several worker replicas over the
// same HTTP/JSON + SSE wire protocol the daemon already speaks.
//
// The split of responsibilities:
//
//   - The coordinator owns admission, tenant auth and fairness: requests
//     authenticate against the tenant registry at the coordinator's edge and
//     queue through internal/jobs' per-tenant fair-share ring exactly as in
//     standalone mode. Only once the dispatcher grants a job a slot does the
//     cluster layer see it — Coordinator implements jobs.Executor, so
//     placement is strictly downstream of fairness.
//   - Placement picks the least-loaded healthy worker (fewest
//     coordinator-tracked in-flight jobs, config order breaking ties) and
//     submits the job's spec there. The job→worker binding is journaled
//     (journal.TypeAssigned) before the stream starts, so a restarted
//     coordinator re-attaches to in-flight remote runs instead of
//     re-dispatching them. Episode events are not journaled: the restarted
//     coordinator starts the job with an empty ring and replays the
//     worker's stream from seq 0.
//   - A worker is just today's nasaicd plus an internal /v1/cluster/*
//     surface: a load-reporting health endpoint and a shared-key gate
//     (distinct from tenant keys) in front of its /v1 API. Workers never see
//     tenant credentials.
//   - Event streams proxy end to end: the coordinator follows the worker's
//     SSE stream (resuming via Last-Event-ID after any interruption) and
//     replays each frame into the job's local ring under the worker's
//     sequence numbers, so client-facing SSE — replay, reset frames,
//     heartbeats, per-write deadlines — is byte-compatible with standalone.
//
// Failure handling leans on the engine's determinism: specs are journaled
// and runs are bit-identical given the same spec, so when a worker dies the
// coordinator clears the binding and re-dispatches the job to another
// worker. The replacement replays its deterministic prefix; the coordinator
// drops already-held sequence numbers and the client's stream continues
// without duplicates. Workers are health-checked with bounded exponential
// backoff; an unreachable worker stops receiving placements until a probe
// succeeds again.
package cluster
