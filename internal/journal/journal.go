// Package journal is nasaicd's write-ahead log: an append-only, segmented
// record of the job lifecycle facts recovery reads (submitted spec, worker
// binding, cancellation, terminal result carrying the event ring, history
// eviction), durable enough that a kill -9 loses at most the record being
// written when the power went out.
//
// Layout. The journal is a directory of numbered segment files
// (seg-00000001.wal, …). Each segment starts with a 12-byte header (magic +
// format version) followed by records framed with internal/cachefile's
// shared CRC64 framing (length + JSON payload + checksum). Appends go to the
// highest-numbered segment; once it exceeds Options.SegmentBytes the segment
// is sealed and a new one opened, and once enough sealed segments pile up
// the whole history is compacted into a single snapshot segment holding one
// snapshot record per live job.
//
// Durability. Append returns only after the record is fsynced. Concurrent
// appenders share fsyncs through a group commit: a background syncer flushes
// the active segment once per batch and wakes every appender the flush
// covered, so the fsync cost amortizes across however many records landed in
// the window.
//
// Recovery. Open replays every segment in order, reducing records into
// per-job states (Reduce semantics are idempotent, so replaying a prefix
// twice converges to the same state). A torn tail, a bit-flipped record, a
// short write or an alien format version degrades to
// truncate-at-last-valid-record — recovery never refuses to start, it just
// surfaces what it dropped in Recovery(). After a failed or short append the
// journal truncates the segment back to its last good offset before
// continuing, so a transient write error cannot poison the records appended
// after it.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nasaic/internal/cachefile"
	"nasaic/internal/faultfs"
)

// Version is the segment format generation; alien versions are skipped (or
// truncated away, for the active segment) at recovery.
const Version = 1

var segMagic = [8]byte{'N', 'S', 'A', 'I', 'C', 'W', 'A', 'L'}

const headerSize = len(segMagic) + 4

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: closed")

// Type discriminates journal records.
type Type string

const (
	// TypeSubmitted records a job's spec entering the system.
	TypeSubmitted Type = "submitted"
	// TypeRunning (a job's start) and TypeEvent (one episode event, Seq its
	// ring sequence) are written only by older builds. They still reduce,
	// read-only and uncapped, so those journals recover with their rings.
	TypeRunning Type = "running"
	TypeEvent   Type = "event"
	// TypeCancel records a cancellation request (the terminal record may
	// never arrive if the process dies first; recovery then settles the job
	// as cancelled instead of re-executing it).
	TypeCancel Type = "cancel"
	// TypeAssigned records a job→worker binding: in cluster mode the
	// coordinator journals which worker replica runs the job (and under which
	// remote job ID) before it starts proxying events, so a restarted
	// coordinator re-attaches to the in-flight remote run instead of
	// re-dispatching it. An empty Worker clears the binding (the worker died
	// and the job is about to be re-dispatched).
	TypeAssigned Type = "assigned"
	// TypeFinished records the terminal status, error, result, start time
	// and the job's bounded event ring (Events, from sequence number Seq).
	TypeFinished Type = "finished"
	// TypeForget drops a job from the journal's state (history eviction).
	TypeForget Type = "forget"
	// TypeSnapshot replaces a job's entire state (compaction output).
	TypeSnapshot Type = "snapshot"
)

// Record is one journal entry. Only the fields meaningful for its Type are
// set; payloads (spec, events, result) are opaque JSON owned by the caller.
type Record struct {
	Type Type   `json:"t"`
	Job  string `json:"job,omitempty"`
	// Tenant names the submitting tenant (TypeSubmitted only); recovery
	// re-attaches the job to it for quota accounting and API scoping.
	Tenant string `json:"tenant,omitempty"`
	// Worker and Remote record a job→worker binding (TypeAssigned only): the
	// worker replica's base URL and the job ID that replica assigned.
	Worker  string            `json:"worker,omitempty"`
	Remote  string            `json:"remote,omitempty"`
	Time    time.Time         `json:"time,omitzero"`
	Started time.Time         `json:"started,omitzero"`
	Seq     int               `json:"seq,omitempty"`
	Status  string            `json:"status,omitempty"`
	Error   string            `json:"error,omitempty"`
	Spec    json.RawMessage   `json:"spec,omitempty"`
	Event   json.RawMessage   `json:"event,omitempty"`
	Events  []json.RawMessage `json:"events,omitempty"`
	Result  json.RawMessage   `json:"result,omitempty"`
	Snap    *JobState         `json:"snap,omitempty"`
}

// JobState is the reduction of one job's records: everything recovery needs
// to restore a terminal job (full event ring included) or re-execute an
// interrupted one from its spec.
type JobState struct {
	ID string `json:"id"`
	// Tenant is the owning tenant's name; empty on records journaled before
	// tenancy existed (recovery maps those to the anonymous tenant).
	Tenant          string          `json:"tenant,omitempty"`
	Spec            json.RawMessage `json:"spec"`
	Status          string          `json:"status"`
	Error           string          `json:"error,omitempty"`
	Created         time.Time       `json:"created,omitzero"`
	Started         time.Time       `json:"started,omitzero"`
	Finished        time.Time       `json:"finished,omitzero"`
	CancelRequested bool            `json:"cancel_requested,omitempty"`
	// Worker/RemoteID are the job's cluster binding: the worker replica the
	// coordinator dispatched it to and the job ID that replica assigned.
	// Empty for locally-executed jobs (standalone and worker mode).
	Worker   string `json:"worker,omitempty"`
	RemoteID string `json:"remote,omitempty"`
	// FirstSeq is the sequence number of Events[0]; events below it were
	// evicted from the bounded ring.
	FirstSeq int               `json:"first_seq,omitempty"`
	Events   []json.RawMessage `json:"events,omitempty"`
	Result   json.RawMessage   `json:"result,omitempty"`
}

// Terminal reports whether the state's status is final.
func (s *JobState) Terminal() bool {
	switch s.Status {
	case "succeeded", "failed", "cancelled":
		return true
	}
	return false
}

// clone deep-copies the state (payload slices are shared; they are never
// mutated in place).
func (s *JobState) clone() *JobState {
	c := *s
	c.Events = append([]json.RawMessage(nil), s.Events...)
	return &c
}

// Options configures a journal.
type Options struct {
	// FS is the filesystem the journal writes through; nil selects the real
	// one (tests inject faultfs.Mem).
	FS faultfs.FS
	// SegmentBytes is the rotation threshold for the active segment. <=0
	// selects 1 MiB.
	SegmentBytes int64
	// CompactSegments is how many segments may exist before the journal
	// compacts them into one snapshot segment. <=0 selects 4.
	CompactSegments int
}

func (o Options) fs() faultfs.FS {
	if o.FS != nil {
		return o.FS
	}
	return faultfs.OS
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return 1 << 20
}

func (o Options) compactSegments() int {
	if o.CompactSegments > 0 {
		return o.CompactSegments
	}
	return 4
}

// Recovery summarizes what Open found and repaired.
type Recovery struct {
	// Segments is the number of segment files scanned.
	Segments int
	// Records is the number of valid records replayed.
	Records int
	// TruncatedBytes counts bytes dropped from segment tails (torn writes,
	// bit flips, short writes).
	TruncatedBytes int64
	// SkippedSegments counts sealed segments that were unreadable as a whole
	// (bad header or alien version) and contributed no records.
	SkippedSegments int
}

// Journal is an open log. All methods are safe for concurrent use.
type Journal struct {
	opts Options
	fs   faultfs.FS
	dir  string

	mu          sync.Mutex
	dirty       *sync.Cond // wakes the syncer: unsynced records exist
	synced      *sync.Cond // wakes appenders: syncedEpoch advanced
	active      faultfs.File
	activeIdx   int
	activePath  string
	activeSize  int64
	sealed      []int // sealed segment indexes, ascending
	writeEpoch  int64
	syncedEpoch int64
	syncErr     error
	syncErrUpTo int64 // epochs <= this that observed syncErr
	closed      bool
	broken      error // set when the log can no longer accept appends
	syncerDone  chan struct{}

	states   map[string]*JobState
	order    []string
	recovery Recovery
}

// Open replays the journal under dir (created on demand) and readies it for
// appends. Corruption degrades to truncation; only real I/O failures (an
// unwritable directory) return an error.
func Open(dir string, opts Options) (*Journal, error) {
	j := &Journal{
		opts:   opts,
		fs:     opts.fs(),
		dir:    dir,
		states: make(map[string]*JobState),
	}
	j.dirty = sync.NewCond(&j.mu)
	j.synced = sync.NewCond(&j.mu)
	if err := j.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", dir, err)
	}
	if err := j.recover(); err != nil {
		return nil, err
	}
	// Compact an accumulated history right away so startup cost does not
	// grow with the lifetime of the directory.
	j.mu.Lock()
	if len(j.sealed)+1 > j.opts.compactSegments() {
		j.compactLocked()
	}
	j.mu.Unlock()
	j.syncerDone = make(chan struct{})
	go j.syncLoop()
	return j, nil
}

// segName renders a segment file name; parseSeg inverts it.
func segName(idx int) string { return fmt.Sprintf("seg-%08d.wal", idx) }

func parseSeg(name string) (int, bool) {
	var idx int
	if _, err := fmt.Sscanf(name, "seg-%d.wal", &idx); err != nil || idx <= 0 {
		return 0, false
	}
	return idx, true
}

// header renders a segment header.
func header() []byte {
	h := make([]byte, 0, headerSize)
	h = append(h, segMagic[:]...)
	return binary.BigEndian.AppendUint32(h, Version)
}

// checkHeader validates a segment prefix.
func checkHeader(data []byte) error {
	if len(data) < headerSize {
		return io.ErrUnexpectedEOF
	}
	if [8]byte(data[:8]) != segMagic {
		return fmt.Errorf("bad segment magic")
	}
	if v := binary.BigEndian.Uint32(data[8:headerSize]); v != Version {
		return fmt.Errorf("segment version %d, supported %d", v, Version)
	}
	return nil
}

// scanSegment walks one segment body (header already stripped), returning
// the decoded records and the byte length of the valid prefix. It never
// panics on arbitrary input (fuzzed).
func scanSegment(body []byte) (recs []Record, valid int64) {
	for len(body) > 0 {
		payload, rest, err := cachefile.SplitFrame(body)
		if err != nil {
			return recs, valid
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A frame that checksums but does not parse is a record from an
			// incompatible generation; stop here like any other corruption.
			return recs, valid
		}
		recs = append(recs, rec)
		valid += int64(cachefile.FrameOverhead + len(payload))
		body = rest
	}
	return recs, valid
}

// recover replays the directory into j.states and opens the active segment.
func (j *Journal) recover() error {
	names, err := j.fs.ReadDir(j.dir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: list %s: %w", j.dir, err)
	}
	var idxs []int
	for _, n := range names {
		if idx, ok := parseSeg(n); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)

	last := 0
	for i, idx := range idxs {
		isLast := i == len(idxs)-1
		path := filepath.Join(j.dir, segName(idx))
		data, err := j.fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("journal: read %s: %w", path, err)
		}
		j.recovery.Segments++
		if err := checkHeader(data); err != nil {
			// Unreadable as a whole. A sealed segment is skipped; the active
			// one is reset so appends land in a well-formed file.
			if isLast {
				j.recovery.TruncatedBytes += int64(len(data))
				if err := j.fs.Truncate(path, 0); err != nil {
					return fmt.Errorf("journal: reset %s: %w", path, err)
				}
			} else {
				j.recovery.SkippedSegments++
			}
			last = idx
			continue
		}
		recs, valid := scanSegment(data[headerSize:])
		if torn := int64(len(data)) - int64(headerSize) - valid; torn > 0 {
			j.recovery.TruncatedBytes += torn
			// Physically truncate only the segment that will take appends;
			// sealed segments just stop contributing records at the damage.
			if isLast {
				if err := j.fs.Truncate(path, int64(headerSize)+valid); err != nil {
					return fmt.Errorf("journal: truncate %s: %w", path, err)
				}
			}
		}
		for _, rec := range recs {
			j.applyLocked(rec)
		}
		j.recovery.Records += len(recs)
		last = idx
	}

	if last == 0 {
		last = 1
	}
	for _, idx := range idxs {
		if idx != last {
			j.sealed = append(j.sealed, idx)
		}
	}
	return j.openActive(last)
}

// openActive opens segment idx for appending, writing a header when the
// file is empty/new.
func (j *Journal) openActive(idx int) error {
	path := filepath.Join(j.dir, segName(idx))
	size := int64(0)
	if data, err := j.fs.ReadFile(path); err == nil {
		size = int64(len(data))
	}
	f, err := j.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("journal: open %s: %w", path, err)
	}
	if size == 0 {
		if _, err := f.Write(header()); err != nil {
			f.Close()
			return fmt.Errorf("journal: write header %s: %w", path, err)
		}
		size = int64(headerSize)
	}
	j.active, j.activeIdx, j.activePath, j.activeSize = f, idx, path, size
	return nil
}

// States returns the recovered (and since appended) job states in
// submission order; the slices are deep copies the caller may keep.
func (j *Journal) States() []*JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*JobState, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, j.states[id].clone())
	}
	return out
}

// Recovery reports what Open scanned and repaired.
func (j *Journal) Recovery() Recovery {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovery
}

// SegmentCount reports the live segment files (sealed + active).
func (j *Journal) SegmentCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.sealed) + 1
}

// Append journals one record. It returns after the record is written and
// fsynced (batched with concurrent appenders), or with the write/sync error
// if durability could not be established — the in-memory reduction is only
// advanced for records that were written.
func (j *Journal) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encode record: %w", err)
	}
	frame := cachefile.AppendFrame(nil, payload)

	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if j.broken != nil {
		err := j.broken
		j.mu.Unlock()
		return err
	}
	j.maybeRotateLocked()
	n, werr := j.active.Write(frame)
	if werr != nil || n < len(frame) {
		// The tail may now hold a torn frame; cut back to the last good
		// offset so the next append stays recoverable. If even that fails
		// the log is broken and says so on every subsequent append.
		if terr := j.fs.Truncate(j.activePath, j.activeSize); terr != nil {
			j.broken = fmt.Errorf("journal: unrecoverable tail after failed write (%v; truncate: %w)", werr, terr)
		}
		if werr == nil {
			werr = io.ErrShortWrite
		}
		j.mu.Unlock()
		return fmt.Errorf("journal: append: %w", werr)
	}
	j.activeSize += int64(len(frame))
	j.applyLocked(rec)
	j.writeEpoch++
	epoch := j.writeEpoch
	j.dirty.Signal()
	for j.syncedEpoch < epoch {
		j.synced.Wait()
	}
	if epoch <= j.syncErrUpTo {
		err := j.syncErr
		j.mu.Unlock()
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.mu.Unlock()
	return nil
}

// syncLoop is the group-commit fsyncer: it flushes the active segment once
// per batch of appended records and wakes every appender the flush covered.
func (j *Journal) syncLoop() {
	defer close(j.syncerDone)
	j.mu.Lock()
	for {
		for !j.closed && j.writeEpoch == j.syncedEpoch {
			j.dirty.Wait()
		}
		if j.closed {
			j.mu.Unlock()
			return
		}
		f, target := j.active, j.writeEpoch
		j.mu.Unlock()
		err := f.Sync()
		j.mu.Lock()
		if target > j.syncedEpoch {
			j.syncedEpoch = target
			if err != nil {
				j.syncErr = err
				j.syncErrUpTo = target
			}
		}
		j.synced.Broadcast()
	}
}

// maybeRotateLocked seals the active segment once it exceeds the rotation
// threshold and compacts once enough segments accumulate. Rotation failures
// leave the current segment in place (the log keeps appending to it).
func (j *Journal) maybeRotateLocked() {
	if j.activeSize < j.opts.segmentBytes() {
		return
	}
	// Seal: everything in the old segment becomes durable before it stops
	// being the sync target.
	if err := j.active.Sync(); err != nil {
		return
	}
	if j.writeEpoch > j.syncedEpoch {
		j.syncedEpoch = j.writeEpoch
		j.synced.Broadcast()
	}
	old, oldIdx := j.active, j.activeIdx
	if err := j.openActive(oldIdx + 1); err != nil {
		// Could not open a successor; keep appending to the old segment.
		j.active, j.activeIdx = old, oldIdx
		j.activePath = filepath.Join(j.dir, segName(oldIdx))
		return
	}
	old.Close()
	j.sealed = append(j.sealed, oldIdx)
	if len(j.sealed)+1 > j.opts.compactSegments() {
		j.compactLocked()
	}
}

// compactLocked rewrites the whole history as one snapshot segment: a
// snapshot record per live job, then deletes the superseded segments. A
// crash at any point is safe — the snapshot segment sorts after the old
// ones, and snapshot records replace state wholesale on replay, so a
// half-deleted history reduces to the same states.
func (j *Journal) compactLocked() {
	idx := j.activeIdx + 1
	path := filepath.Join(j.dir, segName(idx))
	buf := header()
	for _, id := range j.order {
		payload, err := json.Marshal(Record{Type: TypeSnapshot, Job: id, Snap: j.states[id]})
		if err != nil {
			return
		}
		buf = cachefile.AppendFrame(buf, payload)
	}
	f, err := j.fs.OpenAppend(path)
	if err != nil {
		return
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		// A torn snapshot segment truncates away on the next recovery, but
		// remove it now so it cannot shadow the intact history.
		_ = j.fs.Remove(path)
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = j.fs.Remove(path)
		return
	}
	// The snapshot is durable; retire everything it supersedes.
	oldActive, oldIdx := j.active, j.activeIdx
	if j.writeEpoch > j.syncedEpoch {
		// Records in the old active segment are captured by the snapshot;
		// their appenders are satisfied by the snapshot's fsync.
		j.syncedEpoch = j.writeEpoch
		j.synced.Broadcast()
	}
	j.active, j.activeIdx, j.activePath, j.activeSize = f, idx, path, int64(len(buf))
	oldActive.Close()
	for _, s := range j.sealed {
		_ = j.fs.Remove(filepath.Join(j.dir, segName(s)))
	}
	_ = j.fs.Remove(filepath.Join(j.dir, segName(oldIdx)))
	j.sealed = nil
}

// Compact forces a compaction now (tests and operational tooling; the
// journal normally compacts itself on rotation).
func (j *Journal) Compact() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.closed && j.broken == nil {
		j.compactLocked()
	}
}

// Close flushes and closes the journal; further Appends return ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	f, target := j.active, j.writeEpoch
	j.dirty.Broadcast()
	j.mu.Unlock()
	<-j.syncerDone

	err := f.Sync()
	j.mu.Lock()
	if target > j.syncedEpoch {
		j.syncedEpoch = target
		if err != nil {
			j.syncErr = err
			j.syncErrUpTo = target
		}
	}
	j.synced.Broadcast()
	j.mu.Unlock()
	cerr := f.Close()
	if err != nil {
		return err
	}
	return cerr
}

// applyLocked reduces one record into the state map. The reduction is
// idempotent: replaying a prefix twice converges to the same state.
func (j *Journal) applyLocked(rec Record) {
	st := j.states[rec.Job]
	switch rec.Type {
	case TypeSubmitted:
		if rec.Job == "" {
			return
		}
		if st == nil {
			st = &JobState{ID: rec.Job, Status: "pending"}
			j.states[rec.Job] = st
			j.order = append(j.order, rec.Job)
		}
		st.Spec = rec.Spec
		st.Created = rec.Time
		st.Tenant = rec.Tenant
	case TypeRunning:
		if st == nil {
			return
		}
		if !st.Terminal() {
			st.Status = "running"
		}
		st.Started = rec.Time
	case TypeEvent:
		if st == nil {
			return
		}
		switch {
		case rec.Seq < st.FirstSeq:
			// Below the ring: already evicted, drop.
		case rec.Seq < st.FirstSeq+len(st.Events):
			// Duplicate from a recovered re-run; deterministic re-execution
			// makes it byte-identical, but replace unconditionally so the
			// journal is a pure last-writer-wins reduction.
			st.Events[rec.Seq-st.FirstSeq] = rec.Event
		case rec.Seq == st.FirstSeq+len(st.Events):
			st.Events = append(st.Events, rec.Event)
		default:
			// A gap can only follow lost records (mid-history corruption);
			// restart the ring at the new sequence so replay stays coherent.
			st.Events = []json.RawMessage{rec.Event}
			st.FirstSeq = rec.Seq
		}
	case TypeCancel:
		// A cancel landing after the terminal record is a no-op: the job is
		// already settled, and recovery must keep it terminal rather than
		// resurrect it as cancel-requested.
		if st == nil || st.Terminal() {
			return
		}
		st.CancelRequested = true
	case TypeAssigned:
		// Re-assignments overwrite (last writer wins: the newest binding is
		// the live one); a binding on a terminal job is meaningless and kept
		// out so recovery never tries to re-attach a settled job.
		if st == nil || st.Terminal() {
			return
		}
		st.Worker, st.RemoteID = rec.Worker, rec.Remote
	case TypeFinished:
		if st == nil {
			return
		}
		st.Status = rec.Status
		st.Error = rec.Error
		st.Result = rec.Result
		st.Finished = rec.Time
		// One without a ring or start (older builds, or a job that never
		// ran) keeps what TypeEvent and TypeRunning records reduced.
		if !rec.Started.IsZero() {
			st.Started = rec.Started
		}
		if len(rec.Events) > 0 {
			st.FirstSeq, st.Events = rec.Seq, rec.Events
		}
	case TypeForget:
		if st == nil {
			return
		}
		delete(j.states, rec.Job)
		for i, id := range j.order {
			if id == rec.Job {
				j.order = append(j.order[:i], j.order[i+1:]...)
				break
			}
		}
	case TypeSnapshot:
		if rec.Snap == nil || rec.Snap.ID == "" {
			return
		}
		if _, ok := j.states[rec.Snap.ID]; !ok {
			j.order = append(j.order, rec.Snap.ID)
		}
		j.states[rec.Snap.ID] = rec.Snap.clone()
	}
}
