package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nasaic/internal/faultfs"
)

var t0 = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

func raw(s string) json.RawMessage { return json.RawMessage(s) }

// lifecycle returns a deterministic little workload: two jobs, one run to
// completion, one cancelled mid-run.
func lifecycle() []Record {
	recs := []Record{
		{Type: TypeSubmitted, Job: "job-1", Time: t0, Spec: raw(`{"workload":"W3","episodes":4}`)},
		{Type: TypeRunning, Job: "job-1", Time: t0.Add(time.Second)},
	}
	for i := 0; i < 4; i++ {
		recs = append(recs, Record{Type: TypeEvent, Job: "job-1", Seq: i,
			Event: raw(fmt.Sprintf(`{"episode":%d,"reward":%d.5}`, i, i))})
	}
	recs = append(recs,
		Record{Type: TypeFinished, Job: "job-1", Time: t0.Add(time.Minute), Status: "succeeded",
			Result: raw(`{"workload":"W3","episodes":4}`)},
		Record{Type: TypeSubmitted, Job: "job-2", Time: t0.Add(2 * time.Minute), Spec: raw(`{"workload":"W1"}`)},
		Record{Type: TypeRunning, Job: "job-2", Time: t0.Add(3 * time.Minute)},
		Record{Type: TypeEvent, Job: "job-2", Seq: 0, Event: raw(`{"episode":0}`)},
		Record{Type: TypeCancel, Job: "job-2"},
	)
	return recs
}

func statesJSON(t *testing.T, j *Journal) string {
	t.Helper()
	b, err := json.Marshal(j.States())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestEmptyDirOpens(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	j, err := Open("data/journal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(j.States()); n != 0 {
		t.Fatalf("empty journal recovered %d states", n)
	}
	if err := j.Append(lifecycle()[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeRunning, Job: "job-1"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	j, err := Open("dj", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range lifecycle() {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	want := statesJSON(t, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open("dj", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := statesJSON(t, j2); got != want {
		t.Fatalf("replayed states diverge:\n got %s\nwant %s", got, want)
	}
	states := j2.States()
	if len(states) != 2 {
		t.Fatalf("recovered %d states, want 2", len(states))
	}
	s1 := states[0]
	if s1.ID != "job-1" || s1.Status != "succeeded" || !s1.Terminal() {
		t.Fatalf("job-1 state: %+v", s1)
	}
	if len(s1.Events) != 4 || s1.FirstSeq != 0 {
		t.Fatalf("job-1 events: first=%d n=%d", s1.FirstSeq, len(s1.Events))
	}
	s2 := states[1]
	if s2.ID != "job-2" || s2.Terminal() || !s2.CancelRequested {
		t.Fatalf("job-2 state: %+v (want non-terminal with a pending cancel)", s2)
	}
}

// corruptTail opens the single segment file and mangles its tail with mutate.
func corruptTail(t *testing.T, fs *faultfs.Mem, dir string, mutate func([]byte) []byte) string {
	t.Helper()
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, n := range names {
		if strings.HasSuffix(n, ".wal") {
			segs = append(segs, n)
		}
	}
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment, found %v", segs)
	}
	path := filepath.Join(dir, segs[0])
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = mutate(append([]byte(nil), data...))
	if err := fs.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	return path
}

func writeWorkload(t *testing.T, fs *faultfs.Mem, dir string, recs []Record) (perAppend []string) {
	t.Helper()
	j, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		perAppend = append(perAppend, statesJSON(t, j))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return perAppend
}

func TestTruncatedFinalRecordRecovers(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	per := writeWorkload(t, fs, "dj", lifecycle())

	// Cut into the final record: recovery must land exactly one append back.
	corruptTail(t, fs, "dj", func(b []byte) []byte { return b[:len(b)-5] })
	j, err := Open("dj", Options{FS: fs})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	if got, want := statesJSON(t, j), per[len(per)-2]; got != want {
		t.Fatalf("states after torn tail:\n got %s\nwant %s", got, want)
	}
	if rec := j.Recovery(); rec.TruncatedBytes == 0 {
		t.Fatalf("recovery reported no truncation: %+v", rec)
	}
	// The log must keep appending cleanly after the repair.
	if err := j.Append(Record{Type: TypeFinished, Job: "job-2", Status: "cancelled"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open("dj", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	states := j2.States()
	if states[1].Status != "cancelled" {
		t.Fatalf("post-repair append lost: %+v", states[1])
	}
	if rec := j2.Recovery(); rec.TruncatedBytes != 0 {
		t.Fatalf("second recovery still truncating: %+v", rec)
	}
}

func TestBitFlippedCRCRecovers(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	per := writeWorkload(t, fs, "dj", lifecycle())

	// Flip one bit inside the last record's payload.
	corruptTail(t, fs, "dj", func(b []byte) []byte {
		b[len(b)-10] ^= 0x40
		return b
	})
	j, err := Open("dj", Options{FS: fs})
	if err != nil {
		t.Fatalf("open over flipped bit: %v", err)
	}
	defer j.Close()
	if got, want := statesJSON(t, j), per[len(per)-2]; got != want {
		t.Fatalf("states after bit flip:\n got %s\nwant %s", got, want)
	}
}

func TestAlienVersionSegmentResets(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	writeWorkload(t, fs, "dj", lifecycle())
	// Rewrite the version field: the whole segment becomes unreadable and
	// the journal must start over rather than refuse.
	corruptTail(t, fs, "dj", func(b []byte) []byte {
		b[len(segMagic)+3] = 99
		return b
	})
	j, err := Open("dj", Options{FS: fs})
	if err != nil {
		t.Fatalf("open over alien version: %v", err)
	}
	defer j.Close()
	if n := len(j.States()); n != 0 {
		t.Fatalf("alien segment yielded %d states", n)
	}
	if err := j.Append(lifecycle()[0]); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
}

func TestDuplicateReplayIdempotent(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	j, err := Open("dj", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	recs := lifecycle()[:6] // submit, running, 4 events
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	want := statesJSON(t, j)
	// A recovered deterministic run re-journals the same transitions and
	// events with the same sequence numbers; the reduction must not change.
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := statesJSON(t, j); got != want {
		t.Fatalf("duplicate replay changed the reduction:\n got %s\nwant %s", got, want)
	}
	st := j.States()[0]
	if len(st.Events) != 4 {
		t.Fatalf("%d events after duplicate replay, want 4", len(st.Events))
	}
	j.Close()
}

// TestEventRingCapAndForget checks that a Forget record drops a finished
// job, ring and all, from the reduction. The journal caps no ring; the
// restoring job's own ring bound does.
func TestEventRingCapAndForget(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	j, err := Open("dj", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	_ = j.Append(Record{Type: TypeSubmitted, Job: "job-1", Spec: raw(`{}`)})
	_ = j.Append(Record{Type: TypeFinished, Job: "job-1", Status: "succeeded", Events: []json.RawMessage{raw(`{"episode":0}`)}})
	if n := len(j.States()); n != 1 {
		t.Fatalf("%d states before the forget, want 1", n)
	}
	_ = j.Append(Record{Type: TypeForget, Job: "job-1"})
	if n := len(j.States()); n != 0 {
		t.Fatalf("forgotten job still reduces (%d states)", n)
	}
}

func TestRotationAndCompactionBoundSegments(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	j, err := Open("dj", Options{FS: fs, SegmentBytes: 512, CompactSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Append a long history of terminal jobs; rotation + compaction must keep
	// the directory bounded while preserving the reduction.
	for i := 1; i <= 40; i++ {
		id := fmt.Sprintf("job-%d", i)
		_ = j.Append(Record{Type: TypeSubmitted, Job: id, Time: t0, Spec: raw(`{"workload":"W3"}`)})
		_ = j.Append(Record{Type: TypeRunning, Job: id, Time: t0})
		_ = j.Append(Record{Type: TypeEvent, Job: id, Seq: 0, Event: raw(`{"episode":0}`)})
		_ = j.Append(Record{Type: TypeFinished, Job: id, Time: t0, Status: "succeeded", Result: raw(`{"episodes":1}`)})
	}
	want := statesJSON(t, j)
	if n := j.SegmentCount(); n > 4 {
		t.Fatalf("compaction let %d segments accumulate", n)
	}
	names, _ := fs.ReadDir("dj")
	if len(names) > 4 {
		t.Fatalf("directory holds %d files: %v", len(names), names)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open("dj", Options{FS: fs, SegmentBytes: 512, CompactSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := statesJSON(t, j2); got != want {
		t.Fatalf("states after compaction + reopen diverge:\n got %s\nwant %s", got, want)
	}
	if len(j2.States()) != 40 {
		t.Fatalf("recovered %d jobs, want 40", len(j2.States()))
	}
}

func TestFailedWriteKeepsLogAppendable(t *testing.T) {
	for name, faults := range map[string]faultfs.Faults{
		"fail":  {FailWriteAt: 3}, // header is write #1
		"short": {ShortWriteAt: 3},
	} {
		t.Run(name, func(t *testing.T) {
			fs := faultfs.NewMem(faults)
			j, err := Open("dj", Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			recs := lifecycle()
			if err := j.Append(recs[0]); err != nil {
				t.Fatalf("append 1: %v", err)
			}
			if err := j.Append(recs[1]); err == nil {
				t.Fatal("injected write fault not surfaced")
			}
			// The reduction must not have advanced past the failed record,
			// and the log keeps accepting appends.
			if err := j.Append(recs[1]); err != nil {
				t.Fatalf("append after injected fault: %v", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, err := Open("dj", Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			st := j2.States()
			if len(st) != 1 || st[0].Status != "running" {
				t.Fatalf("recovered states: %+v", st)
			}
			if rec := j2.Recovery(); rec.TruncatedBytes != 0 {
				t.Fatalf("failed write left a torn tail: %+v", rec)
			}
		})
	}
}

func TestFsyncErrorSurfacesAndRecovers(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{FailSyncAt: 1})
	j, err := Open("dj", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(lifecycle()[0]); !errors.Is(err, faultfs.ErrInjectedSync) {
		t.Fatalf("append over failed fsync: err = %v, want ErrInjectedSync", err)
	}
	// The next batch syncs cleanly (and makes the earlier bytes durable too).
	if err := j.Append(lifecycle()[1]); err != nil {
		t.Fatalf("append after fsync recovery: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open("dj", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.States(); len(st) != 1 || st[0].Status != "running" {
		t.Fatalf("recovered states: %+v", st)
	}
}

// TestCrashPointMatrix is the acceptance matrix: simulate a kill -9 at every
// single write the journal issues while running the lifecycle workload —
// with the in-flight write fully lost, torn after 1 byte, and torn after 7
// bytes — and require recovery to open cleanly with a state equal to the
// reduction of some prefix of the acknowledged appends.
func TestCrashPointMatrix(t *testing.T) {
	recs := lifecycle()

	// Reference run: per-append reductions + total write count.
	cleanFS := faultfs.NewMem(faultfs.Faults{})
	perAppend := writeWorkload(t, cleanFS, "dj", recs)
	valid := map[string]bool{"[]": true}
	for _, s := range perAppend {
		valid[s] = true
	}
	writes := cleanFS.WriteOps()
	if writes < len(recs) {
		t.Fatalf("reference run issued %d writes for %d records", writes, len(recs))
	}

	for _, keep := range []int{0, 1, 7} {
		for k := 1; k <= writes; k++ {
			fs := faultfs.NewMem(faultfs.Faults{CrashAtWrite: k, CrashKeepBytes: keep})
			j, err := Open("dj", Options{FS: fs})
			if err != nil {
				// The crash can hit the very first header write, before Open
				// returns; that run's recovery is exercised below.
				if !fs.Crashed() {
					t.Fatalf("crash@%d keep=%d: open failed without a crash: %v", k, keep, err)
				}
			} else {
				acked := 0
				for _, rec := range recs {
					if err := j.Append(rec); err != nil {
						break
					}
					acked++
				}
				_ = j.Close()
				if !fs.Crashed() {
					t.Fatalf("crash@%d keep=%d: workload finished without crashing (%d writes)", k, keep, acked)
				}
			}

			fs.Reboot()
			fs.SetFaults(faultfs.Faults{})
			j2, err := Open("dj", Options{FS: fs})
			if err != nil {
				t.Fatalf("crash@%d keep=%d: recovery refused to start: %v\n%s", k, keep, err, fs.Dump())
			}
			got := statesJSON(t, j2)
			if !valid[got] {
				t.Fatalf("crash@%d keep=%d: recovered state is not a prefix reduction:\n%s", k, keep, got)
			}
			// The recovered log must accept appends at the journaled sequence.
			if err := j2.Append(Record{Type: TypeSubmitted, Job: "job-9", Spec: raw(`{}`)}); err != nil {
				t.Fatalf("crash@%d keep=%d: post-recovery append: %v", k, keep, err)
			}
			if err := j2.Close(); err != nil {
				t.Fatalf("crash@%d keep=%d: close: %v", k, keep, err)
			}
		}
	}
}

// TestCrashPointMatrixWithRotation sweeps crash points across a workload that
// rotates and compacts, where the interesting failure points are the segment
// header writes, the snapshot segment write and the post-compaction removes.
func TestCrashPointMatrixWithRotation(t *testing.T) {
	opts := func(fs *faultfs.Mem) Options {
		return Options{FS: fs, SegmentBytes: 384, CompactSegments: 3}
	}
	var recs []Record
	for i := 1; i <= 12; i++ {
		id := fmt.Sprintf("job-%d", i)
		recs = append(recs,
			Record{Type: TypeSubmitted, Job: id, Spec: raw(`{"workload":"W3"}`)},
			Record{Type: TypeEvent, Job: id, Seq: 0, Event: raw(`{"episode":0}`)},
			Record{Type: TypeFinished, Job: id, Status: "succeeded"},
		)
	}

	cleanFS := faultfs.NewMem(faultfs.Faults{})
	j, err := Open("dj", opts(cleanFS))
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{"[]": true}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		valid[statesJSON(t, j)] = true
	}
	_ = j.Close()
	writes := cleanFS.WriteOps()

	for k := 1; k <= writes; k++ {
		fs := faultfs.NewMem(faultfs.Faults{CrashAtWrite: k, CrashKeepBytes: 3})
		if j, err := Open("dj", opts(fs)); err == nil {
			for _, rec := range recs {
				if err := j.Append(rec); err != nil {
					break
				}
			}
			_ = j.Close()
		}
		if !fs.Crashed() {
			t.Fatalf("crash@%d never fired", k)
		}
		fs.Reboot()
		fs.SetFaults(faultfs.Faults{})
		j2, err := Open("dj", opts(fs))
		if err != nil {
			t.Fatalf("crash@%d: recovery refused to start: %v\n%s", k, err, fs.Dump())
		}
		if got := statesJSON(t, j2); !valid[got] {
			t.Fatalf("crash@%d: recovered state is not a prefix reduction:\n%s", k, got)
		}
		_ = j2.Close()
	}
}

// TestConcurrentAppendersGroupCommit exercises the fsync batching path under
// the race detector: many goroutines append at once; afterwards every
// acknowledged record must be recoverable.
func TestConcurrentAppendersGroupCommit(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	j, err := Open("dj", Options{FS: fs, SegmentBytes: 2048, CompactSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("job-%d", w+1)
			if err := j.Append(Record{Type: TypeSubmitted, Job: id, Spec: raw(`{}`)}); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				if err := j.Append(Record{Type: TypeEvent, Job: id, Seq: i,
					Event: raw(fmt.Sprintf(`{"episode":%d}`, i))}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open("dj", Options{FS: fs, SegmentBytes: 2048, CompactSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	states := j2.States()
	if len(states) != workers {
		t.Fatalf("recovered %d jobs, want %d", len(states), workers)
	}
	for _, st := range states {
		if len(st.Events) != per || st.FirstSeq != 0 {
			t.Fatalf("job %s recovered %d events (first %d), want %d", st.ID, len(st.Events), st.FirstSeq, per)
		}
	}
}
