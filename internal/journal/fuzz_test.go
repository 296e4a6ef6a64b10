package journal

import (
	"bytes"
	"encoding/json"
	"testing"

	"nasaic/internal/cachefile"
)

// FuzzScanSegment throws arbitrary bytes at the record decoder: it must
// never panic, must report a valid prefix no longer than the input, and for
// a stream of well-formed frames followed by the fuzzed bytes it must still
// recover exactly the well-formed prefix.
func FuzzScanSegment(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage that is not a frame"))
	seed, _ := json.Marshal(Record{Type: TypeSubmitted, Job: "job-1", Spec: json.RawMessage(`{"workload":"W3"}`)})
	f.Add(cachefile.AppendFrame(nil, seed))
	f.Add(cachefile.AppendFrame(nil, []byte("not json")))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0})

	prefixRecs := []Record{
		{Type: TypeSubmitted, Job: "job-1", Spec: json.RawMessage(`{"workload":"W3"}`)},
		{Type: TypeEvent, Job: "job-1", Seq: 0, Event: json.RawMessage(`{"episode":0}`)},
		{Type: TypeFinished, Job: "job-1", Status: "succeeded", Events: []json.RawMessage{json.RawMessage(`{"episode":0}`)}},
	}
	var prefix []byte
	for _, r := range prefixRecs {
		p, _ := json.Marshal(r)
		prefix = cachefile.AppendFrame(prefix, p)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := scanSegment(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		// The valid prefix must rescan to the same records.
		again, validAgain := scanSegment(data[:valid])
		if validAgain != valid || len(again) != len(recs) {
			t.Fatalf("rescan of valid prefix diverged: %d/%d records, %d/%d bytes",
				len(again), len(recs), validAgain, valid)
		}

		// Well-formed frames ahead of the fuzz input always survive.
		recs2, valid2 := scanSegment(append(append([]byte(nil), prefix...), data...))
		if valid2 < int64(len(prefix)) || len(recs2) < len(prefixRecs) {
			t.Fatalf("intact prefix lost: %d records, %d valid bytes (prefix %d)",
				len(recs2), valid2, len(prefix))
		}
		for i := range prefixRecs {
			if recs2[i].Type != prefixRecs[i].Type || recs2[i].Job != prefixRecs[i].Job {
				t.Fatalf("prefix record %d mutated: %+v", i, recs2[i])
			}
		}
		if !bytes.Equal(data[:valid], data[:valid]) {
			t.Fatal("unreachable")
		}
	})
}
