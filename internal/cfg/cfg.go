// Package cfg provides control-flow graphs and the graph analyses that
// path profiling builds on: reverse postorder, dominators, natural-loop
// detection, and the Ball-Larus conversion of a CFG into a directed
// acyclic graph (DAG) by breaking back edges and adding dummy edges.
//
// A Graph is a per-routine control-flow graph with a single entry and a
// single exit block. Edges carry measured execution frequencies (filled
// in from an edge profile); blocks carry an instruction count used for
// size and cost bookkeeping.
package cfg

import (
	"fmt"
	"sort"
	"strings"
)

// Block is a basic block in a control-flow graph. Blocks are identified
// by their index in Graph.Blocks.
type Block struct {
	ID     int
	Name   string
	Instrs int // number of IR statements in the block

	Out []*Edge
	In  []*Edge
}

func (b *Block) String() string {
	if b == nil {
		return "<nil>"
	}
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("b%d", b.ID)
}

// Edge is a directed control-flow edge. Freq is the measured execution
// frequency from an edge profile (zero until a profile is applied).
// Back is set by Analyze for loop back edges (target dominates source).
type Edge struct {
	ID   int
	Src  *Block
	Dst  *Block
	Freq int64
	Back bool
}

func (e *Edge) String() string {
	if e == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s->%s", e.Src, e.Dst)
}

// Graph is a single-entry, single-exit control-flow graph for one
// routine. Calls is the number of times the routine was invoked in the
// profiled run; it is the execution frequency of the entry block.
type Graph struct {
	Name   string
	Blocks []*Block
	Edges  []*Edge
	Entry  *Block
	Exit   *Block
	Calls  int64

	rpo      []*Block
	rpoIndex []int
	idom     []*Block
	loops    []*Loop
	analyzed bool
}

// New returns an empty graph named name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddBlock appends a new block with the given name and returns it.
func (g *Graph) AddBlock(name string) *Block {
	b := &Block{ID: len(g.Blocks), Name: name}
	g.Blocks = append(g.Blocks, b)
	g.analyzed = false
	return b
}

// Connect adds an edge from src to dst and returns it. Parallel edges
// between the same pair of blocks are not allowed; Connect returns an
// error if one would be created, so malformed graph input surfaces as a
// diagnostic instead of a crash. (The IR lowering never produces one;
// hand-built test graphs use cfgtest.Connect, which panics.)
func (g *Graph) Connect(src, dst *Block) (*Edge, error) {
	for _, e := range src.Out {
		if e.Dst == dst {
			return nil, fmt.Errorf("cfg: parallel edge %s->%s in %s", src, dst, g.Name)
		}
	}
	e := &Edge{ID: len(g.Edges), Src: src, Dst: dst}
	g.Edges = append(g.Edges, e)
	src.Out = append(src.Out, e)
	dst.In = append(dst.In, e)
	g.analyzed = false
	return e, nil
}

// FindEdge returns the edge src->dst, or nil if there is none.
func (g *Graph) FindEdge(src, dst *Block) *Edge {
	for _, e := range src.Out {
		if e.Dst == dst {
			return e
		}
	}
	return nil
}

// BlockFreq returns the execution frequency of b implied by the edge
// profile: the sum of incoming edge frequencies, or Calls for the entry
// block.
func (g *Graph) BlockFreq(b *Block) int64 {
	if b == g.Entry {
		return g.Calls
	}
	var sum int64
	for _, e := range b.In {
		sum += e.Freq
	}
	return sum
}

// Validate checks structural invariants: entry and exit are set, entry
// has no predecessors, exit has no successors, every block is reachable
// from entry, and exit is reachable from every block.
func (g *Graph) Validate() error {
	if g.Entry == nil || g.Exit == nil {
		return fmt.Errorf("cfg %s: entry or exit not set", g.Name)
	}
	if len(g.Entry.In) != 0 {
		return fmt.Errorf("cfg %s: entry block has predecessors", g.Name)
	}
	if len(g.Exit.Out) != 0 {
		return fmt.Errorf("cfg %s: exit block has successors", g.Name)
	}
	fwd := g.reachableFrom(g.Entry, false)
	bwd := g.reachableFrom(g.Exit, true)
	for _, b := range g.Blocks {
		if !fwd[b.ID] {
			return fmt.Errorf("cfg %s: block %s unreachable from entry", g.Name, b)
		}
		if !bwd[b.ID] {
			return fmt.Errorf("cfg %s: exit unreachable from block %s", g.Name, b)
		}
	}
	return nil
}

func (g *Graph) reachableFrom(start *Block, backward bool) []bool {
	seen := make([]bool, len(g.Blocks))
	stack := []*Block{start}
	seen[start.ID] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		edges := b.Out
		if backward {
			edges = b.In
		}
		for _, e := range edges {
			n := e.Dst
			if backward {
				n = e.Src
			}
			if !seen[n.ID] {
				seen[n.ID] = true
				stack = append(stack, n)
			}
		}
	}
	return seen
}

// RPO returns the blocks in reverse postorder of a depth-first search
// from the entry block. The result is cached by Analyze.
func (g *Graph) RPO() []*Block {
	g.Analyze()
	return g.rpo
}

// Dump renders the graph as text, one block per line with successors and
// edge frequencies, for debugging and golden tests.
func (g *Graph) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s (entry=%s exit=%s calls=%d)\n", g.Name, g.Entry, g.Exit, g.Calls)
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "  %s [%d instrs]:", b, b.Instrs)
		outs := append([]*Edge(nil), b.Out...)
		sort.Slice(outs, func(i, j int) bool { return outs[i].Dst.ID < outs[j].Dst.ID })
		for _, e := range outs {
			tag := ""
			if e.Back {
				tag = " back"
			}
			fmt.Fprintf(&sb, " ->%s(%d%s)", e.Dst, e.Freq, tag)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CheckFlow verifies flow conservation of the edge profile: for every
// block other than entry and exit, the sum of incoming frequencies must
// equal the sum of outgoing frequencies; entry emits Calls, exit absorbs
// Calls. Profiles produced by the VM always satisfy this.
func (g *Graph) CheckFlow() error {
	for _, b := range g.Blocks {
		var in, out int64
		for _, e := range b.In {
			in += e.Freq
		}
		for _, e := range b.Out {
			out += e.Freq
		}
		if b == g.Entry {
			in += g.Calls
		}
		if b == g.Exit {
			out += g.Calls
		}
		if in != out {
			return fmt.Errorf("cfg %s: flow not conserved at %s: in=%d out=%d", g.Name, b, in, out)
		}
	}
	return nil
}
