package tenant

import (
	"encoding/json"
	"testing"
)

// FuzzTenantParse feeds arbitrary bytes to Parse. No input may panic it, and
// every accepted registry must have unique tenant names, keys of at least 8
// characters that authenticate as their own tenant, and non-negative limits.
func FuzzTenantParse(f *testing.F) {
	for _, seed := range []string{
		sampleConfig,
		`{"tenants": [{"name": "a", "key": "key-number-1", "max_pending": -1}]}`,
		`{"tenants": [{"name": "a", "key": "key-number-1", "max_concurrent": -3, "max_event_ring": 5}]}`,
		`{"tenants": [{"name": "a", "key": "key-number-1"}, {"name": "a", "key": "key-number-2"}]}`,
		`{"tenants": [{"name": "a", "key": "key-number-1"}, {"name": "b", "key": "key-number-1"}]}`,
		`{"tenants": [{"name": "anonymous", "key": "long-enough-key"}]}`,
		`{"tenants": [{"name": "a", "key": "short"}]}`,
		`{"tenants": [{"NAME": "a", "Key": "key-number-1", "admin": true}]}`,
		`{"tenants": []}`,
		`{"tenants": null}`,
		`{{{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Parse(data)
		if err != nil {
			return
		}
		var in file
		if err := json.Unmarshal(data, &in); err != nil {
			t.Fatalf("accepted undecodable input %q: %v", data, err)
		}
		if len(r.tenants) != len(in.Tenants) || len(r.tenants) == 0 {
			t.Fatalf("input %q: %d tenants registered from %d entries", data, len(r.tenants), len(in.Tenants))
		}
		names := make(map[string]bool)
		for i, tn := range r.tenants {
			if names[tn.Name] || tn.Name == "" || tn.Name == AnonymousName {
				t.Fatalf("input %q: bad or duplicate name %q", data, tn.Name)
			}
			names[tn.Name] = true
			if l := tn.Limits; l.MaxPending < 0 || l.MaxConcurrent < 0 || l.MaxEventRing < 0 {
				t.Fatalf("input %q: tenant %q accepted with negative limits %+v", data, tn.Name, l)
			}
			key := in.Tenants[i].Key
			if len(key) < 8 {
				t.Fatalf("input %q: tenant %q accepted with %d-character key", data, tn.Name, len(key))
			}
			if got, err := r.Authenticate(key); err != nil || got != tn {
				t.Fatalf("input %q: key of %q authenticates as %v (err %v)", data, tn.Name, got, err)
			}
		}
	})
}
