package sched

import (
	"context"
	"errors"
	"testing"

	"nasaic/internal/stats"
)

// minLatencyAssignment returns the heuristic's seed for p: every layer on its
// fastest sub-accelerator.
func minLatencyAssignment(p Problem) Assignment {
	a := make(Assignment, len(p.Chains))
	for ci, c := range p.Chains {
		a[ci] = make([]int, len(c.Layers))
	}
	a.setMinLatency(&p)
	return a
}

// newCkpts returns a checkpoint arena sized for p.
func newCkpts(p *Problem) *ckpts {
	c := new(ckpts)
	c.bind(p)
	return c
}

// workspaceStep is one solve of a workspace sequence: the problem and, when
// polls > 0, the number of ctx polls before the solve is cancelled.
type workspaceStep struct {
	p     Problem
	polls int64
}

// checkWorkspaceSequence solves the steps in order on one workspace and
// requires each outcome — the partial best and error of a cancelled solve
// included — to be bit-equal to the same solve on a fresh workspace.
func checkWorkspaceSequence(t *testing.T, steps []workspaceStep) {
	t.Helper()
	var w Workspace
	for i, st := range steps {
		ctx := func() context.Context {
			if st.polls > 0 {
				return newErrAfterCtx(st.polls)
			}
			return context.Background()
		}
		got, gotErr := w.heuristic(ctx(), st.p)
		want, wantErr := HeuristicCtx(ctx(), st.p)
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("step %d: reused workspace err %v, fresh %v", i, gotErr, wantErr)
		}
		if gotErr == nil && want.Assign == nil {
			t.Fatalf("step %d: fresh solve returned no assignment", i)
		}
		mustEqualResults(t, "reused workspace", got, want)

		ge, gr, gotErr := w.HAP(ctx(), st.p)
		we, wr, wantErr := HAPCtx(ctx(), st.p)
		if !errors.Is(gotErr, wantErr) || ge != we {
			t.Fatalf("step %d: reused HAP (%v, %v), fresh (%v, %v)", i, ge, gotErr, we, wantErr)
		}
		mustEqualResults(t, "reused workspace HAP", gr, wr)
	}
}

// One workspace solves problems of shrinking, growing and widening shape,
// one cancelled mid-scan, then the first again; every result is bit-equal to
// a fresh solve's. A workspace that kept a snapshot, a row or a site from an
// earlier solve would diverge here.
func TestWorkspaceMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(32)
	three := benchProblem(4, 3, 10, 3)
	two := benchProblem(5, 2, 14, 3)
	wide := benchProblem(6, 3, 8, 5)
	cancelled := cancelProblem(40, 4)
	cancelled.Deadline = 170 * 40 / 2
	steps := []workspaceStep{
		{p: three}, {p: two}, {p: wide},
		// 20 polls land inside the first 40-site scan.
		{p: cancelled, polls: 20},
		{p: three},
		{p: randomProblem(rng, 4, 8, 3, 1e8)},
		{p: two},
	}
	checkWorkspaceSequence(t, steps)
}

// FuzzWorkspaceMatchesFresh runs random sequences of random problems, some
// cancelled after a fuzzed number of polls, through one workspace.
func FuzzWorkspaceMatchesFresh(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(5))
	f.Add(int64(32), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, polls uint8) {
		rng := stats.NewRNG(seed)
		steps := make([]workspaceStep, 2+rng.Intn(5))
		for i := range steps {
			// Five layers over three accelerators exceed the exhaustive
			// range, so most problems reach the heuristic.
			steps[i].p = randomProblem(rng, 4, 12, 2+rng.Intn(3), 1e8)
			if i%2 == 1 {
				steps[i].polls = int64(polls)
			}
		}
		checkWorkspaceSequence(t, steps)
	})
}

// A warm workspace's solve allocates only the Result it returns: the
// assignment's row index and backing array and the buffer demand.
func TestWarmWorkspaceAllocs(t *testing.T) {
	p := benchLarge()
	var w Workspace
	ctx := context.Background()
	if _, _, err := w.HAP(ctx, p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := w.HAP(ctx, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Fatalf("warm workspace solve allocates %v times, want 3 (the Result's slices)", allocs)
	}
}
