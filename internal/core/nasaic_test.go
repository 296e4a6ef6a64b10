package core

import (
	"testing"

	"nasaic/internal/dnn"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

// fastConfig returns a reduced-budget configuration for unit tests.
func fastConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Episodes = 60
	cfg.HWSteps = 4
	cfg.Seed = seed
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	muts := []func(*Config){
		func(c *Config) { c.Episodes = 0 },
		func(c *Config) { c.HWSteps = -1 },
		func(c *Config) { c.Rho = 0 },
		func(c *Config) { c.Gamma = 0 },
		func(c *Config) { c.Gamma = 1.5 },
		func(c *Config) { c.Hidden = 0 },
		func(c *Config) { c.LR = 0 },
		func(c *Config) { c.Batch = 0 },
		func(c *Config) { c.EntropyCoef = -1 },
		func(c *Config) { c.HW.NumSubs = 0 },
		func(c *Config) { c.Cost.EnergyMAC = 0 },
		func(c *Config) { c.Workers = maxWorkers + 1 },
	}
	for i, m := range muts {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
	// Workers <=0 selects the default; maxWorkers itself is allowed. Only
	// validation is exercised: nothing here starts the goroutines.
	for _, w := range []int{-1, 0, 1, maxWorkers} {
		c := DefaultConfig()
		c.Workers = w
		if err := c.Validate(); err != nil {
			t.Errorf("Workers=%d rejected: %v", w, err)
		}
		if got := c.workers(); got < 1 || got > maxWorkers || (w <= 0 && got > 16) {
			t.Errorf("Workers=%d resolves to %d workers", w, got)
		}
	}
}

func TestExplorerDecodeRoundtrip(t *testing.T) {
	w := workload.W1()
	x, err := New(w, fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// Controller decision count = arch decisions + 3 per sub-accelerator.
	wantArch := w.Tasks[0].Space.NumChoices() + w.Tasks[1].Space.NumChoices()
	if x.archLen != wantArch {
		t.Errorf("archLen = %d, want %d", x.archLen, wantArch)
	}
	wantTotal := wantArch + 3*x.Cfg.HW.NumSubs
	if got := x.ctrl.NumDecisions(); got != wantTotal {
		t.Errorf("controller decisions = %d, want %d", got, wantTotal)
	}

	// A full zero action vector decodes to the smallest nets and the first
	// hardware options.
	actions := make([]int, wantTotal)
	c := &x.batch(1)[0]
	copy(c.actions, actions)
	x.decode(c)
	if c.skip {
		t.Fatal("zero actions did not decode")
	}
	choices, nets := c.choices, c.nets
	if len(choices) != 2 || len(nets) != 2 {
		t.Fatal("wrong task count")
	}
	small0 := w.Tasks[0].Space.MustDecode(w.Tasks[0].Space.Smallest())
	if nets[0].Signature() != small0.Signature() {
		t.Error("zero actions should decode to the smallest architecture")
	}
	d := c.design
	if len(d.Subs) != x.Cfg.HW.NumSubs {
		t.Errorf("design has %d subs, want %d", len(d.Subs), x.Cfg.HW.NumSubs)
	}
	if d.Subs[0].DF != x.Cfg.HW.Styles[0] || d.Subs[0].PEs != x.Cfg.HW.PEOptions[0] {
		t.Error("zero hardware actions should select first options")
	}
}

// decodeArch memoizes per explorer: equal architecture actions return the
// same choice slices and networks, whatever slice they arrive in.
func TestDecodeArchMemo(t *testing.T) {
	x, err := New(workload.W1(), fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	a := make([]int, x.archLen)
	for i, s := range x.ctrl.Specs()[:x.archLen] {
		a[i] = rng.Intn(s.NumOptions)
	}
	decodeArch := func(a []int) ([][]int, []*dnn.Network, error) {
		choices, nets := make([][]int, len(x.W.Tasks)), make([]*dnn.Network, len(x.W.Tasks))
		return choices, nets, x.decodeArch(a, choices, nets)
	}
	c1, n1, err := decodeArch(a)
	if err != nil {
		t.Fatal(err)
	}
	b := append([]int(nil), a...)
	a[0] = (a[0] + 1) % x.ctrl.Specs()[0].NumOptions // the memo must not alias its input
	c2, n2, err := decodeArch(b)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range n1 {
		if n1[ti] != n2[ti] || &c1[ti][0] != &c2[ti][0] {
			t.Errorf("task %d: equal actions decoded to different networks or choices", ti)
		}
		if want := b[x.taskOffset[ti]]; c2[ti][0] != want {
			t.Errorf("task %d: memoized choices start %d, want %d", ti, c2[ti][0], want)
		}
	}
	_, n3, err := decodeArch(a)
	if err != nil {
		t.Fatal(err)
	}
	if n3[0] == n1[0] || n3[1] != n1[1] {
		t.Error("changing task 0's actions must re-decode task 0 only")
	}
	if want := x.W.Tasks[0].Space.MustDecode(a[:len(c1[0])]).Signature(); n3[0].Signature() != want {
		t.Errorf("memoized decode signature %q, want %q", n3[0].Signature(), want)
	}

	bad := append([]int(nil), b...)
	bad[0] = -1
	before := len(x.decoded)
	if _, _, err := decodeArch(bad); err == nil {
		t.Fatal("out-of-range actions decoded")
	}
	if len(x.decoded) != before {
		t.Error("an undecodable vector was memoized")
	}
}

// A warm decode into a batch candidate plus the hardware cache key
// allocates nothing: no network rebuild, no fmt-built signature, and the key
// is appended into a reused buffer.
func TestWarmDecodeAndKeyAllocs(t *testing.T) {
	x, err := New(workload.W1(), fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	c := &x.batch(1)[0]
	copy(c.actions, x.W.Tasks[0].Space.Largest())
	copy(c.actions[x.taskOffset[1]:], x.W.Tasks[1].Space.Largest())
	x.decode(c)
	if c.skip {
		t.Fatal("largest architectures did not decode")
	}
	var key []byte
	allocs := testing.AllocsPerRun(100, func() {
		x.decode(c)
		key = appendHWKey(key[:0], x.eval.hwPrefix, c.nets, c.design)
	})
	if allocs != 0 {
		t.Errorf("warm decode+key allocates %.0f times, want 0", allocs)
	}
	if want := x.eval.hwPrefix + c.design.Fingerprint() + "|" + c.nets[0].Signature() + "|" + c.nets[1].Signature(); string(key) != want {
		t.Errorf("cache key %q, want %q", key, want)
	}
}

func TestHWMask(t *testing.T) {
	x, err := New(workload.W1(), fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	mask := x.hwMask()
	for i, on := range mask {
		want := i >= x.archLen
		if on != want {
			t.Errorf("mask[%d] = %v, want %v", i, on, want)
		}
	}
}

func TestRunFindsFeasibleSolutions(t *testing.T) {
	w := workload.W3() // the easiest feasibility region
	x, err := New(w, fastConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	res := x.Run()
	if res.Best == nil {
		t.Fatal("no feasible solution found on W3 in 60 episodes")
	}
	if !res.Best.Feasible || res.Best.Penalty != 0 {
		t.Error("best solution must be feasible with zero penalty")
	}
	sp := w.Specs
	if res.Best.Latency > sp.LatencyCycles || res.Best.EnergyNJ > sp.EnergyNJ || res.Best.AreaUM2 > sp.AreaUM2 {
		t.Errorf("best solution violates specs: %s", res.Best)
	}
	// Every explored solution must meet the specs (the paper's guarantee).
	for _, s := range res.Explored {
		if s.Latency > sp.LatencyCycles || s.EnergyNJ > sp.EnergyNJ || s.AreaUM2 > sp.AreaUM2 {
			t.Errorf("explored solution violates specs: %s", s)
		}
	}
	// Explored list is sorted by weighted accuracy descending.
	for i := 1; i < len(res.Explored); i++ {
		if res.Explored[i].Weighted > res.Explored[i-1].Weighted {
			t.Error("explored solutions not sorted by weighted accuracy")
		}
	}
	if res.Best.Weighted != res.Explored[0].Weighted {
		t.Error("best must head the explored list")
	}
	if len(res.History) != 60 {
		t.Errorf("history length %d, want 60", len(res.History))
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Result {
		x, err := New(workload.W3(), fastConfig(9))
		if err != nil {
			t.Fatal(err)
		}
		return x.Run()
	}
	a, b := run(), run()
	if (a.Best == nil) != (b.Best == nil) {
		t.Fatal("determinism broken: one run found a solution, the other did not")
	}
	if a.Best != nil {
		if a.Best.Weighted != b.Best.Weighted || a.Best.Design.String() != b.Best.Design.String() {
			t.Errorf("same seed produced different bests:\n%s\n%s", a.Best, b.Best)
		}
	}
	if len(a.Explored) != len(b.Explored) || a.PrunedEpisodes != b.PrunedEpisodes {
		t.Error("exploration trajectory not deterministic")
	}
}

func TestEarlyPruningSkipsTraining(t *testing.T) {
	// Impossible specs: everything is pruned and no training happens.
	w := workload.W1()
	w.Specs.LatencyCycles = 10
	w.Specs.EnergyNJ = 10
	w.Specs.AreaUM2 = 10
	cfg := fastConfig(2)
	cfg.Episodes = 10
	x, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := x.Run()
	if res.Best != nil || len(res.Explored) != 0 {
		t.Error("impossible specs must yield no feasible solution")
	}
	if res.PrunedEpisodes != 10 {
		t.Errorf("all 10 episodes should be pruned, got %d", res.PrunedEpisodes)
	}
	if res.Trainings != 0 {
		t.Errorf("early pruning must skip training, got %d trainings", res.Trainings)
	}
	if res.HWEvals == 0 {
		t.Error("hardware exploration should still run")
	}
}

func TestSolutionString(t *testing.T) {
	w := workload.W3()
	x, err := New(w, fastConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	res := x.Run()
	if res.Best == nil {
		t.Skip("no feasible solution in short run")
	}
	s := res.Best.String()
	if s == "" || len(s) < 20 {
		t.Errorf("solution string too short: %q", s)
	}
}
