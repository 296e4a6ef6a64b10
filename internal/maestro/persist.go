package maestro

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"

	"nasaic/internal/cachefile"
)

// MemoKind is the cachefile payload discriminator of persisted cost memos.
const MemoKind = "layercost"

// Fingerprint returns the canonical identity of the cost-model calibration:
// every constant, rendered with its field name. It is the cache-invalidation
// key of the persistent warm tier — a memo file written under one
// calibration is never loaded into a memo bound to another, and adding a
// Config field changes every fingerprint, retiring stale files wholesale.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("%#v", c)
}

// memoEntry is one persisted ⟨key, cost⟩ pair.
type memoEntry struct {
	Key  CostKey
	Cost LayerCost
}

// CacheFile returns the warm-tier file path of this memo's calibration under
// dir. The name embeds a hash of the calibration fingerprint so differently
// calibrated memos coexist in one cache directory; memos of the same
// calibration share one file, accumulating entries across saves (each save
// snapshots a memo that was warm-loaded from the same file).
func (cm *CostMemo) CacheFile(dir string) string {
	return filepath.Join(dir, cachefile.Name(MemoKind, cm.cfg.Fingerprint()))
}

// SaveFile atomically writes the memo's entries to path, sorted by key so
// equal memos write equal files. Values are gob-encoded (float64s
// round-trip bit-exactly), the envelope is versioned and checksummed, and
// the stored calibration fingerprint guards loads.
func (cm *CostMemo) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cm.entries()); err != nil {
		return fmt.Errorf("maestro: encode memo snapshot: %w", err)
	}
	return cachefile.WriteFile(path, MemoKind, cm.cfg.Fingerprint(), buf.Bytes())
}

// LoadFile merges a snapshot written by SaveFile into the memo, returning
// the number of file entries processed. A missing, torn, corrupt,
// stale-versioned or differently-calibrated file returns an error and loads
// nothing — every failure means a cold start, never a crash or a stale cost.
// Entries already resident (e.g. in a memo that running searches share) are
// kept; the stored value is bit-identical anyway since LayerCost is pure.
func (cm *CostMemo) LoadFile(path string) (int, error) {
	payload, err := cachefile.ReadFile(path, MemoKind, cm.cfg.Fingerprint())
	if err != nil {
		return 0, err
	}
	var entries []memoEntry
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&entries); err != nil {
		return 0, fmt.Errorf("%w: gob payload: %v", cachefile.ErrCorrupt, err)
	}
	for _, e := range entries {
		cm.store(e.Key, e.Cost)
	}
	return len(entries), nil
}
