package splash

import (
	"math"
	"reflect"
	"testing"
)

// --- Barnes -------------------------------------------------------------------

func TestBarnesForcesApproximateDirectSum(t *testing.T) {
	const n = 200
	bodies := PlummerBodies(n, 5)
	ref := DirectForces(bodies)
	got := append([]Body(nil), bodies...)
	// One step with zero dt effect on comparison: run one step and read
	// the accelerations the tree computed.
	_, err := RunBarnes(BarnesOpts{Config: Config{Threads: 4}, NBodies: n, Steps: 1, Theta: 0.3, Bodies: got})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range got {
		var mag, errMag float64
		for d := 0; d < 3; d++ {
			mag += ref[i][d] * ref[i][d]
			e := got[i].Acc[d] - ref[i][d]
			errMag += e * e
		}
		if mag == 0 {
			continue
		}
		rel := math.Sqrt(errMag) / math.Sqrt(mag)
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.05 {
		t.Errorf("worst relative force error %.3f exceeds 5%% (theta=0.3)", worst)
	}
}

func TestBarnesThetaZeroIsExact(t *testing.T) {
	const n = 60
	bodies := PlummerBodies(n, 11)
	ref := DirectForces(bodies)
	got := append([]Body(nil), bodies...)
	_, err := RunBarnes(BarnesOpts{Config: Config{Threads: 2}, NBodies: n, Steps: 1, Theta: 1e-9, Bodies: got})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		for d := 0; d < 3; d++ {
			if abs(got[i].Acc[d]-ref[i][d]) > 1e-9 {
				t.Fatalf("body %d axis %d: %g vs %g", i, d, got[i].Acc[d], ref[i][d])
			}
		}
	}
}

func TestBarnesThreadInvariance(t *testing.T) {
	const n = 100
	b1 := PlummerBodies(n, 3)
	b2 := PlummerBodies(n, 3)
	if _, err := RunBarnes(BarnesOpts{Config: Config{Threads: 1}, NBodies: n, Steps: 2, Bodies: b1}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunBarnes(BarnesOpts{Config: Config{Threads: 9}, NBodies: n, Steps: 2, Bodies: b2}); err != nil {
		t.Fatal(err)
	}
	for i := range b1 {
		for d := 0; d < 3; d++ {
			if abs(b1[i].Pos[d]-b2[i].Pos[d]) > 1e-12 {
				t.Fatalf("trajectories diverge at body %d", i)
			}
		}
	}
}

func TestBarnesScales(t *testing.T) {
	base, err := RunBarnes(BarnesOpts{Config: Config{Threads: 1}, NBodies: 1500, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunBarnes(BarnesOpts{Config: Config{Threads: 16}, NBodies: 1500, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := par.Speedup(base); s < 5 {
		t.Errorf("16-thread barnes speedup = %.2f, want > 5", s)
	}
}

func TestBarnesRejectsBadInput(t *testing.T) {
	if _, err := RunBarnes(BarnesOpts{Config: Config{Threads: 1}, NBodies: 1}); err == nil {
		t.Error("single body accepted")
	}
	if _, err := RunBarnes(BarnesOpts{Config: Config{Threads: 0}, NBodies: 10}); err == nil {
		t.Error("zero threads accepted")
	}
}

// --- FMM ----------------------------------------------------------------------

func TestFMMPotentialApproximatesDirect(t *testing.T) {
	const n = 400
	charges := RandomCharges(n, 1)
	ref := DirectPotential(charges)
	phi := make([]float64, n)
	_, err := RunFMM(FMMOpts{Config: Config{Threads: 4}, NBodies: n, P: 10, Levels: 3, Charges: charges, Phi: phi})
	if err != nil {
		t.Fatal(err)
	}
	// Normalise by the potential scale.
	var scale float64
	for _, v := range ref {
		scale += v * v
	}
	scale = math.Sqrt(scale / n)
	var worst float64
	for i := range phi {
		if d := abs(phi[i]-ref[i]) / scale; d > worst {
			worst = d
		}
	}
	if worst > 0.01 {
		t.Errorf("worst normalised potential error %.4f exceeds 1%% (p=10)", worst)
	}
}

func TestFMMHigherOrderIsMoreAccurate(t *testing.T) {
	const n = 300
	charges := RandomCharges(n, 2)
	ref := DirectPotential(charges)
	errAt := func(p int) float64 {
		phi := make([]float64, n)
		_, err := RunFMM(FMMOpts{Config: Config{Threads: 2}, NBodies: n, P: p, Levels: 3, Charges: charges, Phi: phi})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range phi {
			sum += (phi[i] - ref[i]) * (phi[i] - ref[i])
		}
		return math.Sqrt(sum / n)
	}
	e4, e12 := errAt(4), errAt(12)
	if e12 >= e4 {
		t.Errorf("p=12 error %g not below p=4 error %g", e12, e4)
	}
}

func TestFMMThreadInvariance(t *testing.T) {
	const n = 256
	charges := RandomCharges(n, 9)
	p1 := make([]float64, n)
	p2 := make([]float64, n)
	if _, err := RunFMM(FMMOpts{Config: Config{Threads: 1}, NBodies: n, Charges: charges, Phi: p1}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFMM(FMMOpts{Config: Config{Threads: 8}, NBodies: n, Charges: charges, Phi: p2}); err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if abs(p1[i]-p2[i]) > 1e-9 {
			t.Fatalf("potentials diverge at %d: %g vs %g", i, p1[i], p2[i])
		}
	}
}

func TestFMMScales(t *testing.T) {
	base, err := RunFMM(FMMOpts{Config: Config{Threads: 1}, NBodies: 6144, Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential placement: 16 threads share 4 FPUs, and FMM's
	// multiply-add-dominated phases hit the quad-sharing ceiling the
	// paper's design trade-off predicts (~4x for pure-FMA work).
	seq, err := RunFMM(FMMOpts{Config: Config{Threads: 16}, NBodies: 6144, Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s := seq.Speedup(base); s < 3 || s > 8 {
		t.Errorf("sequential 16-thread fmm speedup = %.2f, want FPU-sharing-bound ~4-6", s)
	}
	// Balanced placement gives each thread its own quad: near-linear.
	bal, err := RunFMM(FMMOpts{Config: Config{Threads: 16, Balanced: true}, NBodies: 6144, Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s := bal.Speedup(base); s < 9 {
		t.Errorf("balanced 16-thread fmm speedup = %.2f, want > 9", s)
	}
	if bal.Cycles >= seq.Cycles {
		t.Error("balanced placement not faster than sequential for 16 FP-bound threads")
	}
}

func TestFMMRejectsBadInput(t *testing.T) {
	if _, err := RunFMM(FMMOpts{Config: Config{Threads: 1}, NBodies: 1}); err == nil {
		t.Error("single charge accepted")
	}
	if _, err := RunFMM(FMMOpts{Config: Config{Threads: 1}, NBodies: 100, Levels: 20}); err == nil {
		t.Error("level 20 accepted")
	}
	// The default depth: at most 16 charges a leaf on average, and no
	// deeper than FMMMaxLevels, so the largest counts need levels set
	// (math.MaxInt used to spin forever as the leaf count overflowed).
	for _, tc := range []struct{ n, levels, want int }{
		{2, 0, 2}, {1024, 0, 3}, {1025, 0, 4}, {1 << 20, 0, 8}, {1<<20 + 1, 0, -1}, {math.MaxInt, 0, -1},
		{1<<20 + 1, 8, 8}, {64, 1, -1},
	} {
		got, err := FMMLevels(tc.n, tc.levels)
		if tc.want < 0 && err == nil || tc.want >= 0 && (err != nil || got != tc.want) {
			t.Errorf("FMMLevels(%d, %d) = %d, %v; want %d (-1: an error)", tc.n, tc.levels, got, err, tc.want)
		}
	}
}

// Interaction-list geometry: well-separated boxes are never adjacent and
// cover exactly the parent-neighbourhood minus own neighbourhood.
func TestFMMInteractionListGeometry(t *testing.T) {
	for _, level := range []int{2, 3, 4} {
		for b := 0; b < boxCount(level); b += 7 {
			var nbBuf [9]int
			var ilBuf [36]int
			adj := map[int]bool{}
			for _, nb := range neighbours(level, b, true, &nbBuf) {
				adj[nb] = true
			}
			for _, s := range interactionList(level, b, &ilBuf) {
				if adj[s] {
					t.Fatalf("level %d box %d: interaction list contains adjacent box %d", level, b, s)
				}
			}
			if level == 2 && b == 0 {
				if n := len(interactionList(level, b, &ilBuf)); n == 0 {
					t.Error("corner box has empty interaction list")
				}
			}
		}
	}
}

// TestFMMListsMatchMapReference: the neighbour and interaction lists
// filled into fixed arrays hold the boxes, in the order, of the lists
// built by appending and by testing membership in a map of b's
// neighbours, so the M2L sums add in the same order.
func TestFMMListsMatchMapReference(t *testing.T) {
	for level := 2; level <= 5; level++ {
		for b := 0; b < boxCount(level); b++ {
			var nbBuf [9]int
			var ilBuf [36]int
			for _, self := range []bool{false, true} {
				if got, want := neighbours(level, b, self, &nbBuf), refNeighbours(level, b, self); !reflect.DeepEqual(got, want) {
					t.Fatalf("level %d box %d: neighbours %v, reference %v", level, b, got, want)
				}
			}
			adjacent := map[int]bool{}
			for _, nb := range refNeighbours(level, b, true) {
				adjacent[nb] = true
			}
			var want []int
			for _, pn := range refNeighbours(level-1, parentIdx(level, b), true) {
				for k := 0; k < 4; k++ {
					if cand := childIdx(level-1, pn, k); !adjacent[cand] {
						want = append(want, cand)
					}
				}
			}
			if got := interactionList(level, b, &ilBuf); !reflect.DeepEqual(got, want) {
				t.Fatalf("level %d box %d: interaction list %v, map reference %v", level, b, got, want)
			}
		}
	}
}

// refNeighbours is neighbours building its list by append.
func refNeighbours(level, b int, includeSelf bool) []int {
	side := 1 << uint(level)
	r, c := boxRC(level, b)
	var out []int
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			if dr == 0 && dc == 0 && !includeSelf {
				continue
			}
			nr, nc := r+dr, c+dc
			if nr >= 0 && nr < side && nc >= 0 && nc < side {
				out = append(out, boxIdx(level, nr, nc))
			}
		}
	}
	return out
}
