package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"nasaic/internal/core"
	"nasaic/internal/workload"
	"nasaic/pkg/nasaic"
)

// specConfig rebuilds, independently of the admission path, the engine
// configuration a spec asks for.
func specConfig(sp Spec) (core.Config, error) {
	if _, err := workload.ByName(sp.Workload); err != nil {
		return core.Config{}, err
	}
	if o := nasaic.Optimizer(sp.Optimizer); o != "" && o != nasaic.OptimizerRL && o != nasaic.OptimizerEA {
		return core.Config{}, fmt.Errorf("unknown optimizer %q", o)
	}
	cfg := core.DefaultConfig()
	if sp.Episodes > 0 {
		cfg.Episodes = sp.Episodes
	}
	if sp.HWSteps != nil {
		cfg.HWSteps = *sp.HWSteps
	}
	if sp.Seed != 0 {
		cfg.Seed = sp.Seed
	}
	if sp.Refine != nil {
		cfg.Refine = *sp.Refine
	}
	cfg.Workers = sp.Workers
	return cfg, cfg.Validate()
}

// FuzzSubmitSpec posts arbitrary bodies to POST /v1/jobs. No body may panic
// the handler or earn a 5xx, and every accepted spec must name a known
// workload and optimizer and a configuration core.Config.Validate accepts. Jobs run on a
// stub, so accepted specs cost nothing.
func FuzzSubmitSpec(f *testing.F) {
	for _, seed := range []string{
		unboundedHWStepsSpec,
		unboundedWorkersSpec,
		`{"workload":"W1","workers":64}`,
		`{"workload":"W3"}`,
		`{"workload":"w1","episodes":3,"hw_steps":2,"seed":-7,"optimizer":"ea","refine":false,"workers":-1}`,
		`{"workload":"W2","hw_steps":-1}`,
		`{"workload":"W3","hw_steps":1024}`,
		`{"workload":"W3","hw_steps":1025}`,
		`{"workload":"W3","optimizer":"sa"}`,
		`{"workload":"W4","episodes":-1}`,
		`{"workload":"W3"} {}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	m := NewManager(Options{Executor: execFunc(func(context.Context, *Job) (*nasaic.Result, error) { return nil, nil })})
	f.Cleanup(m.Close)
	h := NewHandler(m)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		var snap Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("body %q: undecodable 202 response: %v", body, err)
		}
		j, err := m.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := specConfig(j.Spec); err != nil {
			t.Fatalf("body %q accepted as %+v, but the engine would refuse it: %v", body, j.Spec, err)
		}
	})
}
