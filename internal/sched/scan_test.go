package sched

import (
	"context"
	"math"
	"slices"
	"testing"

	"nasaic/internal/stats"
)

// scanSims counts the simulations of the best-first and the reference scans
// along one solve's trajectory, per phase: phase 1's while the schedule
// misses the deadline, phase 2's after, as the heuristic runs them.
type scanSims struct{ got, ref [2]int }

// checkScansAgree runs p's heuristic trajectory on one workspace and, at
// every round, checks that every move's makespan bound is at most its
// simulated makespan and runs both phases' best-first and reference scans
// from the same state: each pair must return the same move, bit for bit.
// The trajectory then applies the move the heuristic itself would, and the
// incrementally updated suffix sums must equal freshly computed ones.
func checkScansAgree(t *testing.T, label string, p Problem) scanSims {
	t.Helper()
	var w Workspace
	w.bind(p)
	w.refresh()
	ctx := context.Background()
	var sims scanSims
	for round := 0; ; round++ {
		ph := 1
		if w.curMk > p.Deadline {
			ph = 0
		}
		checkBoundsAdmissible(t, label, round, &w)
		var m move
		for i, phase1 := range []bool{true, false} {
			w.sims = 0
			got := w.scan(ctx, phase1)
			gotSims := w.sims
			w.sims = 0
			want := referenceScan(&w, phase1)
			if got.ok != want.ok || got.ci != want.ci || got.li != want.li || got.j != want.j ||
				got.mk != want.mk || math.Float64bits(got.ratio) != math.Float64bits(want.ratio) {
				t.Fatalf("%s round %d phase1=%v: best-first scan %+v, reference %+v",
					label, round, phase1, got, want)
			}
			if i == ph {
				sims.got[ph] += gotSims
				sims.ref[ph] += w.sims
				m = got
			}
		}
		if !m.ok {
			return sims
		}
		w.apply(m)
		chain, accel := slices.Clone(w.chainSuf), slices.Clone(w.accelSuf)
		w.initSuffix()
		if !slices.Equal(chain, w.chainSuf) || !slices.Equal(accel, w.accelSuf) {
			t.Fatalf("%s round %d: suffix sums after the move %v\nwant %v\nand %v\nwant %v",
				label, round, chain, w.chainSuf, accel, w.accelSuf)
		}
	}
}

// checkBoundsAdmissible bounds every move of w's current round, as phase 1
// would with no makespan to beat, and requires each bound to be at most the
// move's simulated makespan.
func checkBoundsAdmissible(t *testing.T, label string, round int, w *Workspace) {
	t.Helper()
	cur := w.curMk
	w.curMk = math.MaxInt64
	w.bound(context.Background(), true)
	w.curMk = cur
	for _, c := range w.cands {
		st := w.sites[c.si]
		row := w.a[st.ci]
		orig := row[st.li]
		row[st.li] = c.j
		w.ev.resumeBounded(w.a, c.si, &w.ck, math.MaxInt64, math.Inf(1))
		row[st.li] = orig
		if w.ev.makespan < c.lb {
			t.Fatalf("%s round %d: move (%d,%d)->%d has bound %d above its makespan %d",
				label, round, st.ci, st.li, c.j, c.lb, w.ev.makespan)
		}
	}
}

// tiedProblem is randomProblem with forced ties: some layers copy another
// sub-accelerator's option (equal moves at one site) and some copy an
// earlier layer's whole option row (equal moves at two sites).
func tiedProblem(rng *stats.RNG, maxChains, maxLayers, numAccels int, scale float64) Problem {
	p := randomProblem(rng, maxChains, maxLayers, numAccels, scale)
	var prev []Option
	for ci := range p.Chains {
		for li := range p.Chains[ci].Layers {
			opts := p.Chains[ci].Layers[li].Options
			switch rng.Intn(3) {
			case 0:
				if numAccels > 1 {
					opts[rng.Intn(numAccels)] = opts[rng.Intn(numAccels)]
				}
			case 1:
				if prev != nil {
					copy(opts, prev)
				}
			}
			prev = opts
		}
	}
	return p
}

// The best-first scan returns the reference scan's move at every round of
// random trajectories, with toy and 1e8-scale energies, unmeetable, tight and
// loose deadlines, and forced ties within and across sites.
func TestScanMatchesReference(t *testing.T) {
	rng := stats.NewRNG(3303)
	for trial := 0; trial < 200; trial++ {
		scale := 1.0
		if trial%2 == 0 {
			scale = 1e8
		}
		p := randomProblem(rng, 3, 10, 1+rng.Intn(4), scale)
		if trial%3 != 0 {
			p = tiedProblem(rng, 3, 10, 2+rng.Intn(3), scale)
		}
		checkScansAgree(t, "trial", p)
	}
	checkScansAgree(t, "medium", benchMedium())
}

// FuzzScanMatchesReference runs checkScansAgree on fuzzed problems, tied or
// not, at toy or 1e8 scale.
func FuzzScanMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(33), uint8(3))
	f.Add(int64(99), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := stats.NewRNG(seed)
		scale := 1.0
		if shape&1 != 0 {
			scale = 1e8
		}
		accels := 2 + int(shape>>2)%3
		p := randomProblem(rng, 3, 12, accels, scale)
		if shape&2 != 0 {
			p = tiedProblem(rng, 3, 12, accels, scale)
		}
		checkScansAgree(t, "fuzz", p)
	})
}

// TestScanBoundsFire counts the simulations of the best-first and the
// reference scan along the heuristic's own trajectory on instances shaped
// like W1's: two chains of 15 layers over three sub-accelerators, with the
// deadline at 1.3x the minimum-latency makespan (phase 2 only) and at 0.9x
// (a few phase-1 rounds first). At the time of writing the best-first scan
// simulates 31% of the reference's phase-1 moves (207 of 660) and 32% of its
// phase-2 moves (545 of 1718); a bound that silently stops firing pushes a
// phase past the limit below.
func TestScanBoundsFire(t *testing.T) {
	const maxFrac = 0.40
	var got, ref [2]int
	for _, num := range []int64{13, 9} {
		for seed := uint64(1); seed <= 4; seed++ {
			p := benchProblem(seed, 2, 15, 3)
			p.Deadline = p.Deadline * num / 13
			s := checkScansAgree(t, "W1-shaped", p)
			for ph := range got {
				got[ph] += s.got[ph]
				ref[ph] += s.ref[ph]
			}
		}
	}
	t.Logf("simulations: phase 1 %d of %d, phase 2 %d of %d", got[0], ref[0], got[1], ref[1])
	for ph := range got {
		if ref[ph] == 0 {
			t.Fatalf("phase %d never ran", ph+1)
		}
		if frac := float64(got[ph]) / float64(ref[ph]); frac > maxFrac {
			t.Errorf("phase %d: best-first scan ran %d simulations, %.3f of the reference's %d; want at most %.2f",
				ph+1, got[ph], frac, ref[ph], maxFrac)
		}
	}
}
