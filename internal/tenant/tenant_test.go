package tenant

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleConfig = `{
  "tenants": [
    {"name": "acme", "key": "acme-secret-1",
     "max_pending": 16, "max_concurrent": 2, "max_event_ring": 1024},
    {"name": "beta", "key": "beta-secret-2", "max_pending": 4},
    {"name": "ops",  "key": "ops-secret-99", "admin": true}
  ]
}`

func TestParseAndAuthenticate(t *testing.T) {
	r, err := Parse([]byte(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	acme, err := r.Authenticate("acme-secret-1")
	if err != nil {
		t.Fatal(err)
	}
	if acme.Name != "acme" || acme.Admin ||
		acme.Limits.MaxPending != 16 || acme.Limits.MaxConcurrent != 2 || acme.Limits.MaxEventRing != 1024 {
		t.Fatalf("acme = %+v", acme)
	}
	ops, err := r.Authenticate("ops-secret-99")
	if err != nil || !ops.Admin {
		t.Fatalf("ops = %+v, err %v", ops, err)
	}
	if _, err := r.Authenticate(""); !errors.Is(err, ErrNoKey) {
		t.Fatalf("empty key: %v, want ErrNoKey", err)
	}
	if _, err := r.Authenticate("acme-secret-"); !errors.Is(err, ErrBadKey) {
		t.Fatalf("prefix of a real key: %v, want ErrBadKey", err)
	}
	if _, err := r.Authenticate("who-is-this"); !errors.Is(err, ErrBadKey) {
		t.Fatalf("unknown key: %v, want ErrBadKey", err)
	}
	if got := r.Names(); strings.Join(got, ",") != "acme,beta,ops" {
		t.Fatalf("Names() = %v", got)
	}
	if !r.Required() {
		t.Fatal("registry with tenants must require auth")
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(sampleConfig), 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tn := r.ByName("beta"); tn == nil || tn.Limits.MaxPending != 4 {
		t.Fatalf("ByName(beta) = %+v", tn)
	}
	if tn := r.ByName("nope"); tn != nil {
		t.Fatalf("ByName(nope) = %+v, want nil", tn)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestParseRejectsBadConfigs(t *testing.T) {
	for name, cfg := range map[string]string{
		"garbage":       `{{{`,
		"empty":         `{"tenants": []}`,
		"no name":       `{"tenants": [{"key": "long-enough-key"}]}`,
		"reserved name": `{"tenants": [{"name": "anonymous", "key": "long-enough-key"}]}`,
		"no key":        `{"tenants": [{"name": "a"}]}`,
		"short key":     `{"tenants": [{"name": "a", "key": "short"}]}`,
		"dup name":      `{"tenants": [{"name": "a", "key": "key-number-1"}, {"name": "a", "key": "key-number-2"}]}`,
		"dup key":       `{"tenants": [{"name": "a", "key": "key-number-1"}, {"name": "b", "key": "key-number-1"}]}`,
		"neg pending":   `{"tenants": [{"name": "a", "key": "key-number-1", "max_pending": -1}]}`,
		"neg running":   `{"tenants": [{"name": "a", "key": "key-number-1", "max_concurrent": -1}]}`,
		"neg ring":      `{"tenants": [{"name": "a", "key": "key-number-1", "max_event_ring": -1}]}`,
	} {
		if _, err := Parse([]byte(cfg)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNilRegistryIsAnonymous(t *testing.T) {
	var r *Registry
	tn, err := r.Authenticate("anything-at-all")
	if err != nil {
		t.Fatal(err)
	}
	if tn.Name != AnonymousName || !tn.Admin {
		t.Fatalf("anonymous = %+v", tn)
	}
	if tn.Limits != (Limits{}) {
		t.Fatalf("anonymous has limits: %+v", tn.Limits)
	}
	if r.Required() {
		t.Fatal("nil registry requires auth")
	}
	if r.ByName("x") != nil || r.Names() != nil {
		t.Fatal("nil registry resolved a tenant")
	}
}

func TestCanSee(t *testing.T) {
	r, err := Parse([]byte(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	acme, ops := r.ByName("acme"), r.ByName("ops")
	if !acme.CanSee("acme") || acme.CanSee("beta") {
		t.Fatal("non-admin scope wrong")
	}
	if !ops.CanSee("acme") || !ops.CanSee("beta") || !ops.CanSee(AnonymousName) {
		t.Fatal("admin must see all tenants")
	}
	var unscoped *Tenant
	if !unscoped.CanSee("acme") {
		t.Fatal("nil (internal) view must see all tenants")
	}
	if !Anonymous().CanSee("acme") {
		t.Fatal("anonymous (auth off) must see all jobs")
	}
}

func TestBearerKey(t *testing.T) {
	for header, want := range map[string]string{
		"Bearer acme-secret-1":  "acme-secret-1",
		"bearer acme-secret-1":  "acme-secret-1", // scheme is case-insensitive
		"Bearer  padded-key  ":  "padded-key",
		"":                      "",
		"Bearer":                "",
		"Basic dXNlcjpwYXNz":    "",
		"BearerNoSpaceKey12345": "",
	} {
		if got := BearerKey(header); got != want {
			t.Errorf("BearerKey(%q) = %q, want %q", header, got, want)
		}
	}
}

func TestNewMirrorsParse(t *testing.T) {
	r, err := New([]Tenant{
		{Name: "a", Limits: Limits{MaxPending: 3}},
		{Name: "b", Admin: true},
	}, []string{"key-for-a-1", "key-for-b-2"})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := r.Authenticate("key-for-a-1")
	if err != nil || tn.Name != "a" || tn.Limits.MaxPending != 3 {
		t.Fatalf("a = %+v, err %v", tn, err)
	}
	if _, err := New([]Tenant{{Name: "a"}}, nil); err == nil {
		t.Fatal("mismatched keys accepted")
	}
}
