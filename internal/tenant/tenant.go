// Package tenant is nasaicd's multi-tenancy registry: named tenants
// authenticated by API keys, each carrying its own quota limits (pending
// jobs, concurrent jobs, event-ring size). The registry loads from a static
// JSON config file (cmd/nasaicd's -tenants flag) and authenticates
// Authorization: Bearer keys in constant time — presented keys are hashed
// and every registered digest is compared with crypto/subtle, so neither the
// number of matching prefix bytes nor which tenant matched leaks through
// timing.
//
// When auth is off (no -tenants file) every request maps to the Anonymous
// tenant: unlimited quotas and admin visibility, i.e. exactly the
// single-tenant behavior the service had before tenancy existed.
package tenant

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// AnonymousName is the tenant every request maps to when auth is off, and
// the tenant pre-tenancy journal records (no tenant field) recover under.
const AnonymousName = "anonymous"

// Authentication failures. The HTTP layer maps ErrNoKey to 401 (the caller
// sent no usable credential) and ErrBadKey to 403 (a credential was sent,
// but it matches no tenant).
var (
	ErrNoKey  = errors.New("tenant: missing or malformed Authorization bearer key")
	ErrBadKey = errors.New("tenant: unknown API key")
)

// Limits are one tenant's quota bounds. Zero values mean unlimited (the
// manager-wide bounds still apply); negative values are rejected, so a typo
// cannot silently lift a quota.
type Limits struct {
	// MaxPending bounds the tenant's jobs queued for a concurrency slot;
	// submissions beyond it are rejected (HTTP 429 with a Retry-After hint).
	MaxPending int `json:"max_pending,omitempty"`
	// MaxConcurrent bounds the tenant's jobs running at once; further jobs
	// wait in the tenant's queue for the fair-share dispatcher.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxEventRing caps the per-job replayable event ring (memory bound); it
	// can only lower the manager-wide default, never raise it.
	MaxEventRing int `json:"max_event_ring,omitempty"`
}

// Tenant is one authenticated principal. Tenants are immutable after the
// registry is built; all Registry methods are safe for concurrent use.
type Tenant struct {
	// Name identifies the tenant: it tags every job it submits, is journaled
	// with the submission, and scopes listings and cancels.
	Name string `json:"name"`
	// Admin grants cross-tenant visibility: listing, reading and cancelling
	// every tenant's jobs.
	Admin  bool   `json:"admin,omitempty"`
	Limits Limits `json:"limits"`

	keyHash [sha256.Size]byte
}

// CanSee reports whether the tenant may observe (get, list, stream, cancel)
// a job owned by the named tenant. A nil tenant is the manager's internal
// unscoped view and sees everything.
func (t *Tenant) CanSee(owner string) bool {
	return t == nil || t.Admin || t.Name == owner
}

// fileTenant is one entry of the -tenants config file.
type fileTenant struct {
	Name          string `json:"name"`
	Key           string `json:"key"`
	Admin         bool   `json:"admin,omitempty"`
	MaxPending    int    `json:"max_pending,omitempty"`
	MaxConcurrent int    `json:"max_concurrent,omitempty"`
	MaxEventRing  int    `json:"max_event_ring,omitempty"`
}

// file is the -tenants config file shape:
//
//	{
//	  "tenants": [
//	    {"name": "acme",  "key": "acme-secret-1",
//	     "max_pending": 16, "max_concurrent": 2, "max_event_ring": 1024},
//	    {"name": "ops",   "key": "ops-secret-9", "admin": true}
//	  ]
//	}
type file struct {
	Tenants []fileTenant `json:"tenants"`
}

// Registry is the authenticated tenant set. A nil *Registry means auth is
// off: Authenticate returns the Anonymous tenant for any key.
type Registry struct {
	tenants []*Tenant // registry order (file order); lookups scan all of them
	byName  map[string]*Tenant
	anon    *Tenant
}

// Anonymous is the default tenant used when auth is off: unlimited quotas
// and admin visibility (single-tenant mode, the pre-tenancy behavior).
func Anonymous() *Tenant {
	return &Tenant{Name: AnonymousName, Admin: true}
}

// New builds a registry from explicit (name, key) tenants; the test-side
// counterpart of Load. Keys must be non-empty and unique, names non-empty,
// unique and not the reserved anonymous name.
func New(entries []Tenant, keys []string) (*Registry, error) {
	if len(entries) != len(keys) {
		return nil, fmt.Errorf("tenant: %d tenants but %d keys", len(entries), len(keys))
	}
	fts := make([]fileTenant, len(entries))
	for i, e := range entries {
		fts[i] = fileTenant{
			Name:          e.Name,
			Key:           keys[i],
			Admin:         e.Admin,
			MaxPending:    e.Limits.MaxPending,
			MaxConcurrent: e.Limits.MaxConcurrent,
			MaxEventRing:  e.Limits.MaxEventRing,
		}
	}
	return build(fts)
}

// Load reads and validates a -tenants config file.
func Load(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: read %s: %w", path, err)
	}
	r, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("tenant: %s: %w", path, err)
	}
	return r, nil
}

// Parse validates config-file bytes into a registry.
func Parse(data []byte) (*Registry, error) {
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if len(f.Tenants) == 0 {
		return nil, errors.New("no tenants defined")
	}
	return build(f.Tenants)
}

func build(fts []fileTenant) (*Registry, error) {
	r := &Registry{byName: make(map[string]*Tenant), anon: Anonymous()}
	seenKeys := make(map[[sha256.Size]byte]string)
	for i, ft := range fts {
		switch {
		case ft.Name == "":
			return nil, fmt.Errorf("tenant %d: empty name", i)
		case ft.Name == AnonymousName:
			return nil, fmt.Errorf("tenant %d: name %q is reserved", i, AnonymousName)
		case ft.Key == "":
			return nil, fmt.Errorf("tenant %q: empty key", ft.Name)
		case len(ft.Key) < 8:
			return nil, fmt.Errorf("tenant %q: key shorter than 8 characters", ft.Name)
		case ft.MaxPending < 0 || ft.MaxConcurrent < 0 || ft.MaxEventRing < 0:
			return nil, fmt.Errorf("tenant %q: negative limit (0 means unlimited)", ft.Name)
		}
		if _, dup := r.byName[ft.Name]; dup {
			return nil, fmt.Errorf("tenant %q: duplicate name", ft.Name)
		}
		t := &Tenant{
			Name:  ft.Name,
			Admin: ft.Admin,
			Limits: Limits{
				MaxPending:    ft.MaxPending,
				MaxConcurrent: ft.MaxConcurrent,
				MaxEventRing:  ft.MaxEventRing,
			},
			keyHash: sha256.Sum256([]byte(ft.Key)),
		}
		if other, dup := seenKeys[t.keyHash]; dup {
			return nil, fmt.Errorf("tenant %q: key already used by %q", ft.Name, other)
		}
		seenKeys[t.keyHash] = ft.Name
		r.tenants = append(r.tenants, t)
		r.byName[ft.Name] = t
	}
	return r, nil
}

// Authenticate resolves an API key to its tenant. On a nil registry (auth
// off) every key — including none — maps to the Anonymous tenant. With auth
// on, an empty key fails with ErrNoKey and an unknown one with ErrBadKey.
// The scan hashes the presented key once and compares the digest against
// every registered tenant with crypto/subtle, never exiting early, so
// response timing is independent of both the key contents and which (if
// any) tenant matched.
func (r *Registry) Authenticate(key string) (*Tenant, error) {
	if r == nil {
		return Anonymous(), nil
	}
	if key == "" {
		return nil, ErrNoKey
	}
	digest := sha256.Sum256([]byte(key))
	var match *Tenant
	for _, t := range r.tenants {
		if subtle.ConstantTimeCompare(digest[:], t.keyHash[:]) == 1 && match == nil {
			match = t
		}
	}
	if match == nil {
		return nil, ErrBadKey
	}
	return match, nil
}

// BearerKey extracts the key from an Authorization header value. It returns
// "" when the header is absent or not a Bearer credential.
func BearerKey(header string) string {
	const prefix = "Bearer "
	if len(header) > len(prefix) && strings.EqualFold(header[:len(prefix)], prefix) {
		return strings.TrimSpace(header[len(prefix):])
	}
	return ""
}

// ByName resolves a tenant by name (nil when absent). Recovery uses it to
// re-attach journaled jobs to their tenants' current limits; a name that no
// longer exists in the config keeps its jobs (scoped under the old name)
// with unlimited per-tenant quotas.
func (r *Registry) ByName(name string) *Tenant {
	if r == nil {
		return nil
	}
	if name == AnonymousName {
		return r.anon
	}
	return r.byName[name]
}

// Names returns the registered tenant names, sorted (banner/debug output).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.tenants))
	for _, t := range r.tenants {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// Required reports whether requests must present a key (auth on).
func (r *Registry) Required() bool { return r != nil }
