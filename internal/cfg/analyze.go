package cfg

import "fmt"

// Loop is a natural loop: the set of blocks from which the back edges'
// sources are reachable without passing through the header.
type Loop struct {
	Header *Block
	Backs  []*Edge // back edges targeting Header
	Blocks map[int]bool
	Parent *Loop // immediately enclosing loop, or nil
}

// Inner reports whether the loop contains no nested loop.
func (l *Loop) inner(all []*Loop) bool {
	for _, o := range all {
		if o != l && o.Parent == l {
			return false
		}
	}
	return true
}

// Analyze computes reverse postorder, dominators, back edges, and
// natural loops. It is idempotent and invoked lazily by the accessors.
func (g *Graph) Analyze() {
	if g.analyzed {
		return
	}
	g.computeRPO()
	g.computeDominators()
	g.markBackEdges()
	g.findLoops()
	g.analyzed = true
}

func (g *Graph) computeRPO() {
	n := len(g.Blocks)
	seen := make([]bool, n)
	post := make([]*Block, 0, n)

	type frame struct {
		b *Block
		i int
	}
	stack := []frame{{g.Entry, 0}}
	seen[g.Entry.ID] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.b.Out) {
			e := f.b.Out[f.i]
			f.i++
			if !seen[e.Dst.ID] {
				seen[e.Dst.ID] = true
				stack = append(stack, frame{e.Dst, 0})
			}
			continue
		}
		post = append(post, f.b)
		stack = stack[:len(stack)-1]
	}

	g.rpo = make([]*Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		g.rpo = append(g.rpo, post[i])
	}
	g.rpoIndex = make([]int, n)
	for i := range g.rpoIndex {
		g.rpoIndex[i] = -1
	}
	for i, b := range g.rpo {
		g.rpoIndex[b.ID] = i
	}
}

// computeDominators implements the Cooper-Harvey-Kennedy iterative
// dominator algorithm over reverse postorder.
func (g *Graph) computeDominators() {
	g.idom = make([]*Block, len(g.Blocks))
	g.idom[g.Entry.ID] = g.Entry
	changed := true
	for changed {
		changed = false
		for _, b := range g.rpo {
			if b == g.Entry {
				continue
			}
			var newIdom *Block
			for _, e := range b.In {
				p := e.Src
				if g.idom[p.ID] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = g.intersect(p, newIdom)
				}
			}
			if newIdom != nil && g.idom[b.ID] != newIdom {
				g.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
}

func (g *Graph) intersect(a, b *Block) *Block {
	for a != b {
		for g.rpoIndex[a.ID] > g.rpoIndex[b.ID] {
			a = g.idom[a.ID]
		}
		for g.rpoIndex[b.ID] > g.rpoIndex[a.ID] {
			b = g.idom[b.ID]
		}
	}
	return a
}

// Dominates reports whether a dominates b.
func (g *Graph) Dominates(a, b *Block) bool {
	g.Analyze()
	for {
		if b == a {
			return true
		}
		d := g.idom[b.ID]
		if d == b || d == nil {
			return false
		}
		b = d
	}
}

func (g *Graph) markBackEdges() {
	for _, e := range g.Edges {
		e.Back = g.dominatesNoAnalyze(e.Dst, e.Src)
	}
}

func (g *Graph) dominatesNoAnalyze(a, b *Block) bool {
	for {
		if b == a {
			return true
		}
		d := g.idom[b.ID]
		if d == b || d == nil {
			return false
		}
		b = d
	}
}

// findLoops builds the natural loop for each header (merging the bodies
// of all back edges sharing the header) and links parent loops.
func (g *Graph) findLoops() {
	byHeader := map[int]*Loop{}
	var order []*Loop
	for _, e := range g.Edges {
		if !e.Back {
			continue
		}
		l := byHeader[e.Dst.ID]
		if l == nil {
			l = &Loop{Header: e.Dst, Blocks: map[int]bool{e.Dst.ID: true}}
			byHeader[e.Dst.ID] = l
			order = append(order, l)
		}
		l.Backs = append(l.Backs, e)
		// Walk backwards from the back edge source, stopping at the header.
		stack := []*Block{e.Src}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if l.Blocks[b.ID] {
				continue
			}
			l.Blocks[b.ID] = true
			for _, in := range b.In {
				stack = append(stack, in.Src)
			}
		}
	}
	// Parent: the smallest strictly-containing loop.
	for _, l := range order {
		var best *Loop
		for _, o := range order {
			if o == l || !o.Blocks[l.Header.ID] {
				continue
			}
			if len(o.Blocks) <= len(l.Blocks) {
				continue
			}
			if best == nil || len(o.Blocks) < len(best.Blocks) {
				best = o
			}
		}
		l.Parent = best
	}
	g.loops = order
}

// Loops returns the natural loops of the graph, one per loop header.
func (g *Graph) Loops() []*Loop {
	g.Analyze()
	return g.loops
}

// InnerLoops returns only loops with no nested loop.
func (g *Graph) InnerLoops() []*Loop {
	g.Analyze()
	var out []*Loop
	for _, l := range g.loops {
		if l.inner(g.loops) {
			out = append(out, l)
		}
	}
	return out
}

// LoopOf returns the innermost loop containing b, or nil.
func (g *Graph) LoopOf(b *Block) *Loop {
	g.Analyze()
	var best *Loop
	for _, l := range g.loops {
		if !l.Blocks[b.ID] {
			continue
		}
		if best == nil || len(l.Blocks) < len(best.Blocks) {
			best = l
		}
	}
	return best
}

// TripCount returns the average trip count of the loop implied by the
// edge profile: iterations per entry, where iterations = header
// frequency and entries = header frequency minus back edge frequency.
// Returns 0 if the loop never entered.
func (g *Graph) TripCount(l *Loop) float64 {
	var backFreq int64
	for _, e := range l.Backs {
		backFreq += e.Freq
	}
	headerFreq := g.BlockFreq(l.Header)
	entries := headerFreq - backFreq
	if entries <= 0 {
		if headerFreq > 0 {
			return float64(headerFreq)
		}
		return 0
	}
	return float64(headerFreq) / float64(entries)
}

// CheckReducible verifies that every retreating edge is a back edge by
// dominance, i.e. the graph is reducible. Reducibility is a property
// of the flow reachable from the entry, so edges from unreachable
// blocks (e.g. mid-transformation, before pruning) are ignored. The IR
// lowering only emits structured control flow, so this never fails for
// compiled code.
func (g *Graph) CheckReducible() error {
	g.Analyze()
	for _, e := range g.Edges {
		if g.rpoIndex[e.Src.ID] < 0 {
			continue
		}
		if g.rpoIndex[e.Dst.ID] <= g.rpoIndex[e.Src.ID] && !e.Back {
			return fmt.Errorf("cfg %s: irreducible edge %s", g.Name, e)
		}
	}
	return nil
}
