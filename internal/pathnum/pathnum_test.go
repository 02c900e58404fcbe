package pathnum_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pathprof/internal/cfg"
	"pathprof/internal/cfg/cfgtest"
	"pathprof/internal/pathnum"
)

func mustDAG(t testing.TB, g *cfg.Graph) *cfg.DAG {
	t.Helper()
	d, err := cfg.BuildDAG(g)
	if err != nil {
		t.Fatalf("BuildDAG: %v", err)
	}
	return d
}

func mustNumber(t testing.TB, d *cfg.DAG, excl []bool, order pathnum.Order) *pathnum.Numbering {
	t.Helper()
	n, err := pathnum.Number(d, excl, order)
	if err != nil {
		t.Fatalf("Number: %v", err)
	}
	return n
}

func TestDiamondNumbering(t *testing.T) {
	g := cfgtest.Diamond()
	d := mustDAG(t, g)
	n := mustNumber(t, d, nil, pathnum.OrderBallLarus)
	if n.N != 2 {
		t.Fatalf("N = %d, want 2", n.N)
	}
	checkBijection(t, n)
}

func TestLoopGraphNumbering(t *testing.T) {
	// The loop graph from the cfg tests has 8 DAG paths, like the
	// paper's Figure 1 example (N=8).
	g := cfg.New("loop")
	entry := g.AddBlock("entry")
	h := g.AddBlock("h")
	b1 := g.AddBlock("b1")
	b2 := g.AddBlock("b2")
	tl := g.AddBlock("t")
	exit := g.AddBlock("exit")
	cfgtest.Connect(g, entry, h)
	cfgtest.Connect(g, h, b1)
	cfgtest.Connect(g, h, b2)
	cfgtest.Connect(g, b1, tl)
	cfgtest.Connect(g, b2, tl)
	cfgtest.Connect(g, tl, h)
	cfgtest.Connect(g, tl, exit)
	g.Entry = entry
	g.Exit = exit
	d := mustDAG(t, g)
	n := mustNumber(t, d, nil, pathnum.OrderBallLarus)
	if n.N != 8 {
		t.Fatalf("N = %d, want 8", n.N)
	}
	checkBijection(t, n)
}

// checkBijection verifies that path numbers are exactly a permutation
// of [0, N-1] and that Reconstruct inverts PathNumber.
func checkBijection(t testing.TB, n *pathnum.Numbering) {
	t.Helper()
	paths := n.D.EnumeratePaths(n.Excluded, -1)
	if int64(len(paths)) != n.N {
		t.Fatalf("enumerated %d paths, N = %d", len(paths), n.N)
	}
	seen := make(map[int64]bool)
	for _, p := range paths {
		num, ok := n.PathNumber(p)
		if !ok {
			t.Fatalf("PathNumber(%s) not ok", p)
		}
		if num < 0 || num >= n.N {
			t.Fatalf("path %s number %d out of [0,%d)", p, num, n.N)
		}
		if seen[num] {
			t.Fatalf("duplicate path number %d for %s", num, p)
		}
		seen[num] = true
		rp, err := n.Reconstruct(num)
		if err != nil {
			t.Fatalf("Reconstruct(%d): %v", num, err)
		}
		if rp.String() != p.String() {
			t.Fatalf("Reconstruct(%d) = %s, want %s", num, rp, p)
		}
	}
}

func TestNumberingBijectionProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := cfgtest.Random(rng, 3+rng.Intn(15))
		cfgtest.Profile(g, rng, 40, 200)
		d, err := cfg.BuildDAG(g)
		if err != nil {
			return false
		}
		for _, order := range []pathnum.Order{pathnum.OrderBallLarus, pathnum.OrderByFreq} {
			n, err := pathnum.Number(d, nil, order)
			if err != nil {
				return false
			}
			if n.N > 5000 {
				continue
			}
			paths := d.EnumeratePaths(nil, -1)
			if int64(len(paths)) != n.N {
				return false
			}
			seen := make(map[int64]bool)
			for _, p := range paths {
				num, ok := n.PathNumber(p)
				if !ok || num < 0 || num >= n.N || seen[num] {
					return false
				}
				seen[num] = true
				rp, err := n.Reconstruct(num)
				if err != nil || rp.String() != p.String() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestNumberingWithExclusionsProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := cfgtest.Random(rng, 4+rng.Intn(12))
		cfgtest.Profile(g, rng, 40, 200)
		d, err := cfg.BuildDAG(g)
		if err != nil {
			return false
		}
		excl := make([]bool, len(d.Edges))
		for _, e := range d.Edges {
			if rng.Intn(5) == 0 {
				excl[e.ID] = true
			}
		}
		n, err := pathnum.Number(d, excl, pathnum.OrderByFreq)
		if err != nil {
			return false
		}
		if n.N > 5000 {
			return true
		}
		paths := d.EnumeratePaths(excl, -1)
		if int64(len(paths)) != n.N {
			return false
		}
		seen := make(map[int64]bool)
		for _, p := range paths {
			num, ok := n.PathNumber(p)
			if !ok || num < 0 || num >= n.N || seen[num] {
				return false
			}
			seen[num] = true
		}
		// Paths over excluded edges must be rejected.
		all := d.EnumeratePaths(nil, 20000)
		for _, p := range all {
			usesExcluded := false
			for _, e := range p {
				if excl[e.ID] {
					usesExcluded = true
					break
				}
			}
			if _, ok := n.PathNumber(p); ok == usesExcluded {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSmartNumberingHottestEdgeZero(t *testing.T) {
	g := cfgtest.Diamond()
	var ab, ac *cfg.Edge
	for _, e := range g.Edges {
		if e.Src.Name == "a" && e.Dst.Name == "b" {
			ab = e
		}
		if e.Src.Name == "a" && e.Dst.Name == "c" {
			ac = e
		}
	}
	ab.Freq = 10
	ac.Freq = 90 // c is the hot arm
	d := mustDAG(t, g)
	n := mustNumber(t, d, nil, pathnum.OrderByFreq)
	if v := n.Val[d.Real(ac.Src, ac.Dst).ID]; v != 0 {
		t.Errorf("hottest edge a->c has Val %d, want 0", v)
	}
	if v := n.Val[d.Real(ab.Src, ab.Dst).ID]; v == 0 {
		t.Errorf("cold edge a->b has Val 0, want nonzero")
	}
}

func TestPathsThroughAndObvious(t *testing.T) {
	// Diamond: both paths are obvious (each arm is a defining edge).
	g := cfgtest.Diamond()
	d := mustDAG(t, g)
	n := mustNumber(t, d, nil, pathnum.OrderBallLarus)
	if !n.AllObvious() {
		t.Errorf("diamond AllObvious = false, want true")
	}
	for _, p := range d.EnumeratePaths(nil, -1) {
		if n.DefiningEdge(p) == nil {
			t.Errorf("path %s has no defining edge", p)
		}
	}

	// Double diamond: 4 paths, every edge carries 2 paths: none obvious.
	g2 := cfg.New("dd")
	entry := g2.AddBlock("entry")
	a := g2.AddBlock("a")
	b := g2.AddBlock("b")
	c := g2.AddBlock("c")
	m := g2.AddBlock("m")
	x := g2.AddBlock("x")
	y := g2.AddBlock("y")
	j := g2.AddBlock("j")
	exit := g2.AddBlock("exit")
	cfgtest.Connect(g2, entry, a)
	cfgtest.Connect(g2, a, b)
	cfgtest.Connect(g2, a, c)
	cfgtest.Connect(g2, b, m)
	cfgtest.Connect(g2, c, m)
	cfgtest.Connect(g2, m, x)
	cfgtest.Connect(g2, m, y)
	cfgtest.Connect(g2, x, j)
	cfgtest.Connect(g2, y, j)
	cfgtest.Connect(g2, j, exit)
	g2.Entry = entry
	g2.Exit = exit
	d2 := mustDAG(t, g2)
	n2 := mustNumber(t, d2, nil, pathnum.OrderBallLarus)
	if n2.N != 4 {
		t.Fatalf("N = %d, want 4", n2.N)
	}
	if n2.AllObvious() {
		t.Errorf("double diamond AllObvious = true, want false")
	}
	if got := n2.NonObviousPaths(); got != 4 {
		t.Errorf("NonObviousPaths = %d, want 4", got)
	}
	for _, p := range d2.EnumeratePaths(nil, -1) {
		if n2.DefiningEdge(p) != nil {
			t.Errorf("path %s has defining edge in all-non-obvious graph", p)
		}
	}
}

func TestPathsThroughMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		g := cfgtest.Random(rng, 3+rng.Intn(10))
		d := mustDAG(t, g)
		n := mustNumber(t, d, nil, pathnum.OrderBallLarus)
		if n.N > 2000 {
			continue
		}
		paths := d.EnumeratePaths(nil, -1)
		count := make(map[int]int64)
		for _, p := range paths {
			for _, e := range p {
				count[e.ID]++
			}
		}
		for _, e := range d.Edges {
			if got := n.PathsThrough(e); got != count[e.ID] {
				t.Fatalf("iter %d: PathsThrough(%s) = %d, want %d\n%s", i, e, got, count[e.ID], g.Dump())
			}
		}
	}
}

func TestEventCountPreservesPathSums(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := cfgtest.Random(rng, 3+rng.Intn(14))
		cfgtest.Profile(g, rng, 60, 300)
		d, err := cfg.BuildDAG(g)
		if err != nil {
			return false
		}
		excl := make([]bool, len(d.Edges))
		for _, e := range d.Edges {
			if rng.Intn(7) == 0 {
				excl[e.ID] = true
			}
		}
		for _, order := range []pathnum.Order{pathnum.OrderBallLarus, pathnum.OrderByFreq} {
			n, err := pathnum.Number(d, excl, order)
			if err != nil {
				return false
			}
			if n.N > 3000 {
				continue
			}
			for _, w := range []pathnum.Weights{pathnum.StaticWeights(d), pathnum.ProfileWeights(d)} {
				inc, chord := pathnum.EventCount(n, w)
				if !checkEventCount(n, inc, chord, 3000) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEventCountMovesInstrumentationOffHotTree(t *testing.T) {
	// On the diamond with a hot arm, profile-weighted event counting
	// must leave the hot arm chord-free.
	g := cfgtest.Diamond()
	for _, e := range g.Edges {
		e.Freq = 5
		if e.Src.Name == "a" && e.Dst.Name == "c" {
			e.Freq = 95
		}
		if e.Src.Name == "c" && e.Dst.Name == "d" {
			e.Freq = 95
		}
		if e.Src.Name == "entry" || e.Src.Name == "d" {
			e.Freq = 100
		}
	}
	g.Calls = 100
	d := mustDAG(t, g)
	n := mustNumber(t, d, nil, pathnum.OrderByFreq)
	inc, chord := pathnum.EventCount(n, pathnum.ProfileWeights(d))
	if !checkEventCount(n, inc, chord, 100) {
		t.Fatal("event counting broke path sums")
	}
	// The hot path entry->a->c->d->exit must carry no increments: a
	// chord with increment zero needs no instrumentation.
	for _, e := range d.Edges {
		hot := e.Freq >= 95
		if hot && chord[e.ID] && inc[e.ID] != 0 {
			t.Errorf("hot edge %s carries increment %d, want 0", e, inc[e.ID])
		}
	}
}

func TestReconstructRejectsOutOfRange(t *testing.T) {
	g := cfgtest.Diamond()
	d := mustDAG(t, g)
	n := mustNumber(t, d, nil, pathnum.OrderBallLarus)
	if _, err := n.Reconstruct(-1); err == nil {
		t.Error("Reconstruct(-1) succeeded")
	}
	if _, err := n.Reconstruct(n.N); err == nil {
		t.Error("Reconstruct(N) succeeded")
	}
}

func TestStaticWeightsFavorLoops(t *testing.T) {
	// In a loop graph, the static heuristic must weight loop-interior
	// edges above the loop-exit edge.
	g := cfg.New("loop")
	entry := g.AddBlock("entry")
	h := g.AddBlock("h")
	b := g.AddBlock("b")
	exit := g.AddBlock("exit")
	cfgtest.Connect(g, entry, h)
	cfgtest.Connect(g, h, b)
	cfgtest.Connect(g, b, h)
	cfgtest.Connect(g, h, exit)
	g.Entry = entry
	g.Exit = exit
	d := mustDAG(t, g)
	w := pathnum.StaticWeights(d)
	hb := d.Real(h, b)
	hx := d.Real(h, exit)
	if w[hb.ID] <= w[hx.ID] {
		t.Errorf("loop edge weight %d <= exit edge weight %d", w[hb.ID], w[hx.ID])
	}
}

// checkEventCount is the reference oracle for event counting: on
// small routines it enumerates every path and checks that the chord
// increments sum to the path's number.
func checkEventCount(n *pathnum.Numbering, inc []int64, chord []bool, maxPathsToCheck int) bool {
	if n.N > int64(maxPathsToCheck) {
		return true
	}
	paths := n.D.EnumeratePaths(n.Excluded, maxPathsToCheck)
	for _, p := range paths {
		want, ok := n.PathNumber(p)
		if !ok {
			continue
		}
		var got int64
		for _, e := range p {
			if chord[e.ID] {
				got += inc[e.ID]
			}
		}
		if got != want {
			return false
		}
	}
	return true
}
