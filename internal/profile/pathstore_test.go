package profile

import (
	"reflect"
	"testing"

	"pathprof/internal/cfg"
)

// TestPathStoreHoldsNoPointers: the trie nodes, the overflow
// siblings, the path records and the ID arena are pointer-free, so
// the garbage collector never scans a path profile's per-edge storage
// and Clone copies it as plain memory.
func TestPathStoreHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(PathProfile{})
	for _, name := range []string{"nodes", "sibs", "recs", "ids"} {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("PathProfile has no field %s", name)
		}
		if f.Type.Kind() != reflect.Slice {
			t.Fatalf("PathProfile.%s is a %v, want a slice", name, f.Type)
		}
		if el := f.Type.Elem(); hasPointers(el) {
			t.Errorf("PathProfile.%s element type %v holds a pointer", name, el)
		}
	}
	if n := reflect.TypeOf(pathNode{}).Size(); n != 16 {
		t.Errorf("trie node is %d bytes, want 16", n)
	}
}

// hasPointers reports whether values of t hold anything the garbage
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// TestCloneAllocsIgnorePathCount: cloning a path profile costs the
// same few allocations whether it holds ten paths or ten thousand.
func TestCloneAllocsIgnorePathCount(t *testing.T) {
	edges := fakeEdges(64)
	allocs := func(distinct int) float64 {
		pp := NewPathProfile("f")
		pp.Bind(edges)
		for i := 0; i < distinct; i++ {
			p := make(cfg.Path, 14)
			for k := range p {
				p[k] = edges[2*k+(i>>k)&1]
			}
			pp.Add(p, int64(i+1))
		}
		if pp.Distinct() != distinct {
			t.Fatalf("built %d distinct paths, want %d", pp.Distinct(), distinct)
		}
		s := &Snapshot{Paths: map[string]*PathProfile{"f": pp}}
		return testing.AllocsPerRun(20, func() { s.Clone() })
	}
	few, many := allocs(10), allocs(10000)
	if many != few {
		t.Errorf("Clone allocations grew with paths: %.0f at 10 paths, %.0f at 10000", few, many)
	}
}

// TestPathsResolveEdges: Paths resolves an edge ID through the bound
// table first, then through edges handed to Add or adopted by Merge,
// and gives any other ID one placeholder per call carrying only the
// ID. Learning an edge never writes to the bound table.
func TestPathsResolveEdges(t *testing.T) {
	dag := fakeEdges(4)
	bound := []*cfg.DAGEdge{dag[0], dag[1], nil, dag[3]}
	extra := &cfg.DAGEdge{ID: 6, Kind: cfg.EntryDummy}
	src := NewPathProfile("f")
	src.Add(cfg.Path{extra, dag[1], dag[2]}, 1)

	pp := NewPathProfile("f")
	pp.Bind(bound)
	cur := pp.Root()
	for _, id := range []int32{0, 9, 9, 3} {
		cur = pp.Step(cur, id)
	}
	pp.AddAt(cur, []int32{0, 9, 9, 3}, 2)
	pp.Merge(src)

	got := pp.Paths()
	if len(got) != 2 {
		t.Fatalf("got %d paths, want 2", len(got))
	}
	p := got[0].Path
	if p[0] != dag[0] || p[3] != dag[3] {
		t.Error("bound IDs do not resolve to the DAG's edges")
	}
	if p[1].ID != 9 || p[1] != p[2] || p[1] == nil || p[1].Src != nil {
		t.Errorf("unknown ID 9: placeholders %p %p, want one shared edge carrying only the ID", p[1], p[2])
	}
	if q := got[1].Path; q[0] != extra || q[1] != dag[1] || q[2] != dag[2] {
		t.Error("an edge learned through Merge does not resolve")
	}
	if pp.Edge(9) != nil || pp.Edge(6) != extra || pp.Edge(-1) != nil {
		t.Error("Edge resolves the wrong edges")
	}
	if bound[2] != nil {
		t.Error("learning an edge wrote to the bound table")
	}
	if c := pp.clone(); c.Paths()[1].Path[0] != extra {
		t.Error("a clone lost the learned edges")
	}
}
