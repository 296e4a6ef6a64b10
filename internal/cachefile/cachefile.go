// Package cachefile is the on-disk container format of the persistent warm
// tier: a versioned, checksummed envelope around an opaque payload (the
// gob-encoded entries of one core.Memos tier: the layer-cost memo or the
// hardware-evaluation cache).
//
// A file is a single atomic snapshot:
//
//	offset  field
//	0       magic "NSAICCHE" (8 bytes)
//	8       format version, big-endian uint32
//	12      kind length (uint32) + kind bytes       — payload discriminator
//	…       config-key length (uint32) + key bytes  — invalidation identity
//	…       payload length (uint64) + payload bytes
//	end-8   CRC64-ECMA over everything before it
//
// Readers verify the magic, version, section bounds and checksum before
// surfacing a single byte of payload, so a torn write, a flipped bit or a
// file from a different format generation degrades to a cold start instead
// of garbage results. Writers go through a temp file + rename, so a crash
// mid-write leaves the previous snapshot (or nothing) in place, never a
// partial file under the final name.
//
// The config key is the caller's canonical fingerprint of everything that
// parameterizes the cached computation beyond the entry keys (e.g. the
// cost-model calibration constants): Load rejects a file whose stored key
// differs, which is how a recalibration invalidates stale caches.
package cachefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Version is the current format generation. Bump it whenever the envelope or
// any payload encoding changes incompatibly; older files then load cold.
const Version = 1

var magic = [8]byte{'N', 'S', 'A', 'I', 'C', 'C', 'H', 'E'}

// Sentinel load failures. All of them mean "start cold" to callers; they are
// distinguished so tests and logs can tell a corrupt file from a stale one.
var (
	// ErrCorrupt reports a structurally invalid file: bad magic, impossible
	// section bounds, or a checksum mismatch (torn write, bit rot).
	ErrCorrupt = errors.New("cachefile: corrupt cache file")
	// ErrVersion reports a file written by a different format generation.
	ErrVersion = errors.New("cachefile: cache file version mismatch")
	// ErrKind reports a structurally valid file holding a different payload
	// kind than the caller asked for.
	ErrKind = errors.New("cachefile: cache file kind mismatch")
	// ErrConfig reports a valid file whose stored config key differs from
	// the caller's — the cached computation was parameterized differently.
	ErrConfig = errors.New("cachefile: cache config key mismatch")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Encode serializes one snapshot into the container format.
func Encode(kind, configKey string, payload []byte) []byte {
	n := len(magic) + 4 + 4 + len(kind) + 4 + len(configKey) + 8 + len(payload) + 8
	buf := make([]byte, 0, n)
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, Version)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(kind)))
	buf = append(buf, kind...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(configKey)))
	buf = append(buf, configKey...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
}

// Decode parses and verifies one container, returning its kind, config key
// and payload. It never panics on malformed input (fuzzed in fuzz_test.go):
// every failure maps to ErrCorrupt or ErrVersion.
func Decode(data []byte) (kind, configKey string, payload []byte, err error) {
	// Smallest possible file: magic + version + three empty sections + CRC.
	if len(data) < len(magic)+4+4+4+8+8 {
		return "", "", nil, fmt.Errorf("%w: %d bytes is below the minimum envelope size", ErrCorrupt, len(data))
	}
	if [8]byte(data[:8]) != magic {
		return "", "", nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, sum := data[:len(data)-8], binary.BigEndian.Uint64(data[len(data)-8:])
	if got := crc64.Checksum(body, crcTable); got != sum {
		return "", "", nil, fmt.Errorf("%w: checksum mismatch (stored %016x, computed %016x)", ErrCorrupt, sum, got)
	}
	// The checksum validates the version field, so check it after: a stale
	// generation is reported as ErrVersion, not as corruption.
	if v := binary.BigEndian.Uint32(body[8:12]); v != Version {
		return "", "", nil, fmt.Errorf("%w: file version %d, supported %d", ErrVersion, v, Version)
	}
	rest := body[12:]
	next := func(width int) ([]byte, bool) {
		if len(rest) < width {
			return nil, false
		}
		var n uint64
		if width == 4 {
			n = uint64(binary.BigEndian.Uint32(rest))
		} else {
			n = binary.BigEndian.Uint64(rest)
		}
		rest = rest[width:]
		if uint64(len(rest)) < n {
			return nil, false
		}
		sec := rest[:n]
		rest = rest[n:]
		return sec, true
	}
	k, ok1 := next(4)
	c, ok2 := next(4)
	p, ok3 := next(8)
	if !ok1 || !ok2 || !ok3 || len(rest) != 0 {
		return "", "", nil, fmt.Errorf("%w: section bounds exceed file size", ErrCorrupt)
	}
	return string(k), string(c), p, nil
}

// WriteFile atomically replaces path with a snapshot: the envelope is staged
// in a temp file in the same directory (created on demand), synced, and
// renamed over path, so readers only ever observe complete snapshots.
func WriteFile(path, kind, configKey string, payload []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(Encode(kind, configKey, payload)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile loads and verifies path, requiring the given kind and config key.
// Every failure — including a missing file (os.IsNotExist on the unwrapped
// error) — means the caller starts cold.
func ReadFile(path, kind, configKey string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	k, c, payload, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if k != kind {
		return nil, fmt.Errorf("%w: file holds %q, want %q", ErrKind, k, kind)
	}
	if c != configKey {
		return nil, fmt.Errorf("%w: stored configuration differs", ErrConfig)
	}
	return payload, nil
}

// Name derives a stable file name for one (prefix, configKey) pair, hashing
// the key so differently calibrated caches coexist in one directory instead
// of clobbering each other. The full key is still stored and verified inside
// the file; the hash only namespaces the directory entry.
func Name(prefix, configKey string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(configKey))
	return fmt.Sprintf("%s-%016x.cache", prefix, h.Sum64())
}
