package journal

import (
	"encoding/json"
	"testing"
	"time"

	"nasaic/internal/faultfs"
)

// TestReduceTerminalThenCancelStaysTerminal pins the cancel/finish race fix:
// a cancel record that lands after the terminal record (the job finished
// between the manager's done-check and the journal append, before that
// sequence was made atomic) must reduce to the terminal state — not flip the
// job to cancel-requested, which would make recovery settle a succeeded job
// as cancelled.
func TestReduceTerminalThenCancelStaysTerminal(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	j, err := Open("data/journal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: TypeSubmitted, Job: "job-1", Time: t0, Spec: raw(`{"workload":"W3","episodes":2}`)},
		{Type: TypeRunning, Job: "job-1", Time: t0.Add(time.Second)},
		{Type: TypeFinished, Job: "job-1", Time: t0.Add(time.Minute), Status: "succeeded",
			Result: raw(`{"workload":"W3","episodes":2}`)},
		{Type: TypeCancel, Job: "job-1"}, // spurious: raced the finish
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	check := func(j *Journal, when string) {
		t.Helper()
		states := j.States()
		if len(states) != 1 {
			t.Fatalf("%s: %d states", when, len(states))
		}
		st := states[0]
		if st.Status != "succeeded" || !st.Terminal() {
			t.Fatalf("%s: status %q, want succeeded", when, st.Status)
		}
		if st.CancelRequested {
			t.Fatalf("%s: terminal-then-cancel left CancelRequested set", when)
		}
	}
	check(j, "live reduction")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The same sequence replayed from disk reduces identically.
	j2, err := Open("data/journal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	check(j2, "replay")

	// And it survives compaction: the snapshot record must carry the
	// terminal state, not a cancel-requested one.
	j2.Compact()
	check(j2, "post-compaction")
	j2.Close()
	j3, err := Open("data/journal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	check(j3, "replay of compacted snapshot")
}

// TestReduceCancelBeforeTerminalStillSettles is the control: cancel before
// the process died (no terminal record) must still mark the state so
// recovery settles the job as cancelled instead of re-executing it.
func TestReduceCancelBeforeTerminalStillSettles(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	j, err := Open("data/journal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, rec := range []Record{
		{Type: TypeSubmitted, Job: "job-1", Time: t0, Spec: raw(`{"workload":"W3"}`)},
		{Type: TypeRunning, Job: "job-1", Time: t0.Add(time.Second)},
		{Type: TypeCancel, Job: "job-1"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st := j.States()[0]
	if !st.CancelRequested || st.Terminal() {
		t.Fatalf("state = %+v, want cancel-requested and non-terminal", st)
	}
}

// TestReduceAssignedBinding pins the cluster assignment record: the newest
// job→worker binding wins, an empty-worker record clears it, bindings on
// terminal jobs are ignored, and a live binding survives replay and
// compaction (that is what lets a restarted coordinator re-attach).
func TestReduceAssignedBinding(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	j, err := Open("data/journal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: TypeSubmitted, Job: "job-1", Time: t0, Spec: raw(`{"workload":"W3"}`)},
		{Type: TypeAssigned, Job: "job-1", Worker: "http://w1:8080", Remote: "job-7"},
		{Type: TypeAssigned, Job: "job-1", Worker: "", Remote: ""}, // w1 died: binding cleared
		{Type: TypeAssigned, Job: "job-1", Worker: "http://w2:8080", Remote: "job-3"},
		{Type: TypeSubmitted, Job: "job-2", Time: t0, Spec: raw(`{"workload":"W1"}`)},
		{Type: TypeFinished, Job: "job-2", Time: t0.Add(time.Minute), Status: "succeeded"},
		{Type: TypeAssigned, Job: "job-2", Worker: "http://w1:8080", Remote: "job-9"}, // raced the finish
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	check := func(j *Journal, when string) {
		t.Helper()
		states := j.States()
		if len(states) != 2 {
			t.Fatalf("%s: %d states", when, len(states))
		}
		if states[0].Worker != "http://w2:8080" || states[0].RemoteID != "job-3" {
			t.Fatalf("%s: job-1 binding %q/%q, want the re-dispatch to w2",
				when, states[0].Worker, states[0].RemoteID)
		}
		if states[1].Worker != "" || states[1].RemoteID != "" {
			t.Fatalf("%s: terminal job-2 grew binding %q/%q", when, states[1].Worker, states[1].RemoteID)
		}
	}
	check(j, "live")
	j.Compact()
	check(j, "post-compaction")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open("data/journal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	check(j2, "replay")
}

// TestTenantFieldRoundTrips pins the tenancy plumbing through the journal:
// the submitted record's tenant survives reduction, replay and compaction.
func TestTenantFieldRoundTrips(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	j, err := Open("data/journal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: TypeSubmitted, Job: "job-1", Tenant: "acme", Time: t0, Spec: raw(`{"workload":"W3"}`)},
		{Type: TypeSubmitted, Job: "job-2", Time: t0, Spec: raw(`{"workload":"W1"}`)}, // pre-tenancy shape
		{Type: TypeFinished, Job: "job-1", Time: t0.Add(time.Minute), Status: "succeeded"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	check := func(j *Journal, when string) {
		t.Helper()
		states := j.States()
		if len(states) != 2 {
			t.Fatalf("%s: %d states", when, len(states))
		}
		if states[0].Tenant != "acme" {
			t.Fatalf("%s: job-1 tenant %q, want acme", when, states[0].Tenant)
		}
		if states[1].Tenant != "" {
			t.Fatalf("%s: pre-tenancy job-2 grew tenant %q", when, states[1].Tenant)
		}
	}
	check(j, "live")
	j.Compact()
	check(j, "post-compaction")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open("data/journal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	check(j2, "replay")
}

// TestReduceFinishedCarriesRing pins the current terminal record: the ring,
// its first sequence number and the start time come from TypeFinished and
// survive replay and compaction. A finished record without a ring, as older
// builds wrote it, keeps the ring their TypeEvent records reduced.
func TestReduceFinishedCarriesRing(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	j, err := Open("data/journal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	ring := []json.RawMessage{raw(`{"episode":3}`), raw(`{"episode":4}`)}
	for _, rec := range []Record{
		{Type: TypeSubmitted, Job: "job-1", Time: t0, Spec: raw(`{"workload":"W3"}`)},
		{Type: TypeFinished, Job: "job-1", Time: t0.Add(time.Minute), Started: t0.Add(time.Second),
			Status: "succeeded", Seq: 3, Events: ring},
		{Type: TypeSubmitted, Job: "job-2", Time: t0, Spec: raw(`{"workload":"W1"}`)},
		{Type: TypeRunning, Job: "job-2", Time: t0.Add(2 * time.Second)},
		{Type: TypeEvent, Job: "job-2", Seq: 0, Event: raw(`{"episode":0}`)},
		{Type: TypeFinished, Job: "job-2", Time: t0.Add(time.Minute), Status: "succeeded"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	check := func(j *Journal, when string) {
		t.Helper()
		states := j.States()
		if len(states) != 2 {
			t.Fatalf("%s: %d states, want 2", when, len(states))
		}
		s1, s2 := states[0], states[1]
		if s1.FirstSeq != 3 || len(s1.Events) != 2 || string(s1.Events[1]) != `{"episode":4}` ||
			!s1.Started.Equal(t0.Add(time.Second)) {
			t.Fatalf("%s: job-1 ring first=%d n=%d started=%v", when, s1.FirstSeq, len(s1.Events), s1.Started)
		}
		if s2.FirstSeq != 0 || len(s2.Events) != 1 || !s2.Started.Equal(t0.Add(2*time.Second)) {
			t.Fatalf("%s: legacy job-2 ring first=%d n=%d started=%v", when, s2.FirstSeq, len(s2.Events), s2.Started)
		}
	}
	check(j, "live reduction")
	j.Close()
	j2, err := Open("data/journal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	check(j2, "replay")
	j2.Compact()
	check(j2, "post-compaction")
}
