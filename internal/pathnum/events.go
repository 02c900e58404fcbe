package pathnum

import (
	"sort"

	"pathprof/internal/cfg"
)

// Weights are predicted edge execution frequencies used to select the
// event-counting spanning tree, indexed by DAG edge ID. Higher-weight
// edges are preferred for the tree (and thus carry no instrumentation).
type Weights []int64

// ProfileWeights predicts future edge frequencies from the measured
// edge profile (PPP's smart event counting).
func ProfileWeights(d *cfg.DAG) Weights {
	w := make(Weights, len(d.Edges))
	for _, e := range d.Edges {
		w[e.ID] = e.Freq
	}
	return w
}

// StaticWeights predicts edge frequencies with Ball-Larus's simple
// static heuristics: loops execute 10 times and branches split 50/50.
// The estimate propagates a nominal entry frequency through the CFG
// loop-nesting structure; only the relative order matters.
func StaticWeights(d *cfg.DAG) Weights {
	g := d.G
	depth := make([]int, len(g.Blocks))
	for _, b := range g.Blocks {
		n := 0
		for l := g.LoopOf(b); l != nil; l = l.Parent {
			n++
		}
		if n > 6 {
			n = 6 // cap to keep the integer weights in range
		}
		depth[b.ID] = n
	}
	pow10 := func(n int) int64 {
		v := int64(1)
		for i := 0; i < n; i++ {
			v *= 10
		}
		return v
	}
	w := make(Weights, len(d.Edges))
	for _, e := range d.Edges {
		switch e.Kind {
		case cfg.RealEdge:
			// Edge weight: estimated frequency split evenly among the
			// source's outgoing CFG edges. Edges that leave a loop use
			// the target's (shallower) depth: they run once per entry,
			// not once per iteration.
			out := int64(len(e.Src.Out))
			if out == 0 {
				out = 1
			}
			dep := depth[e.Src.ID]
			if depth[e.Dst.ID] < dep {
				dep = depth[e.Dst.ID]
			}
			w[e.ID] = 1000 * pow10(dep) / out
		case cfg.EntryDummy:
			// Stands for back edges into this header: loop iterates 10
			// times per entry, so 9/10 of the header frequency.
			w[e.ID] = 900 * pow10(depth[e.Dst.ID]-1)
		case cfg.ExitDummy:
			w[e.ID] = 900 * pow10(depth[e.Src.ID]-1)
		}
	}
	return w
}

// EventCount reassigns edge values per Ball's event-counting algorithm:
// it chooses a maximum-weight spanning tree of the DAG (plus a virtual
// exit->entry edge that is always in the tree), assigns increment zero
// to tree edges, and for each chord computes the increment as the
// signed sum of the original values around the cycle the chord closes.
// The sum of increments along every complete path equals the path's
// number. Only edges on at least one complete non-excluded path
// participate; all other edges get increment zero and no
// instrumentation.
//
// The returned slice is indexed by DAG edge ID; entry holds the chord
// increment (tree and non-hot edges hold zero). The second result
// reports which edges are chords (instrumentation sites).
func EventCount(n *Numbering, w Weights) (inc []int64, chord []bool) {
	d := n.D
	g := d.G
	inc = make([]int64, len(d.Edges))
	chord = make([]bool, len(d.Edges))

	// Hot edges: those on at least one complete non-excluded path.
	hot := make([]bool, len(d.Edges))
	var hotEdges []*cfg.DAGEdge
	for _, e := range d.Edges {
		if n.PathsThrough(e) >= 1 {
			hot[e.ID] = true
			hotEdges = append(hotEdges, e)
		}
	}
	if len(hotEdges) == 0 {
		return inc, chord
	}

	// Kruskal maximum-weight spanning tree over the undirected hot
	// graph. The virtual exit->entry edge is inserted first so it is
	// always a tree edge (it has no value and can carry no
	// instrumentation).
	sort.SliceStable(hotEdges, func(i, j int) bool { return w[hotEdges[i].ID] > w[hotEdges[j].ID] })
	parentUF := make([]int, len(g.Blocks))
	for i := range parentUF {
		parentUF[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parentUF[x] != x {
			parentUF[x] = parentUF[parentUF[x]]
			x = parentUF[x]
		}
		return x
	}
	union := func(a, b int) bool {
		ra, rb := find(a), find(b)
		if ra == rb {
			return false
		}
		parentUF[ra] = rb
		return true
	}

	// Tree adjacency: treeEdge[b] connects b to its tree parent.
	type treeLink struct {
		other *cfg.Block
		e     *cfg.DAGEdge // nil for the virtual edge
		// forward is true if the DAG edge points from this node to
		// other (i.e. traversing this -> other follows edge direction).
		forward bool
	}
	adj := make([][]treeLink, len(g.Blocks))
	addTree := func(e *cfg.DAGEdge, a, b *cfg.Block) {
		adj[a.ID] = append(adj[a.ID], treeLink{other: b, e: e, forward: e == nil || e.Src == a})
		adj[b.ID] = append(adj[b.ID], treeLink{other: a, e: e, forward: e != nil && e.Src == b})
	}
	union(g.Exit.ID, g.Entry.ID)
	addTree(nil, g.Exit, g.Entry) // virtual edge, value 0
	for _, e := range hotEdges {
		if union(e.Src.ID, e.Dst.ID) {
			addTree(e, e.Src, e.Dst)
		} else {
			chord[e.ID] = true
		}
	}

	// Root the tree at entry; record parent links and depth.
	parent := make([]treeLink, len(g.Blocks))
	depth := make([]int, len(g.Blocks))
	inTree := make([]bool, len(g.Blocks))
	stack := []*cfg.Block{g.Entry}
	inTree[g.Entry.ID] = true
	order := []*cfg.Block{}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, b)
		for _, l := range adj[b.ID] {
			if inTree[l.other.ID] {
				continue
			}
			inTree[l.other.ID] = true
			// Link from child (l.other) to parent (b): forward is true
			// if the DAG edge points child -> parent.
			fwd := l.e != nil && l.e.Src == l.other
			parent[l.other.ID] = treeLink{other: b, e: l.e, forward: fwd}
			depth[l.other.ID] = depth[b.ID] + 1
			stack = append(stack, l.other)
		}
	}

	val := func(e *cfg.DAGEdge) int64 {
		if e == nil {
			return 0
		}
		return n.Val[e.ID]
	}

	// For each chord c = (u, v): walk the cycle c, then v up to the LCA,
	// then down to u. Tree edges traversed along their direction add
	// their value; against it subtract. The chord itself counts +Val(c).
	for _, c := range hotEdges {
		if !chord[c.ID] {
			continue
		}
		sum := val(c)
		u, v := c.Src, c.Dst
		// Walk both ends up to the LCA. From v we walk child->parent in
		// the same direction as the cycle; from u we walk child->parent
		// against the cycle direction.
		x, y := v, u
		for depth[x.ID] > depth[y.ID] {
			l := parent[x.ID]
			if l.forward { // edge points x -> parent: along cycle
				sum += val(l.e)
			} else {
				sum -= val(l.e)
			}
			x = l.other
		}
		for depth[y.ID] > depth[x.ID] {
			l := parent[y.ID]
			if l.forward { // edge points y -> parent: against cycle
				sum -= val(l.e)
			} else {
				sum += val(l.e)
			}
			y = l.other
		}
		for x != y {
			lx := parent[x.ID]
			if lx.forward {
				sum += val(lx.e)
			} else {
				sum -= val(lx.e)
			}
			x = lx.other
			ly := parent[y.ID]
			if ly.forward {
				sum -= val(ly.e)
			} else {
				sum += val(ly.e)
			}
			y = ly.other
		}
		inc[c.ID] = sum
	}
	return inc, chord
}
