package netprof

import (
	"fmt"
	"sort"

	"pathprof/internal/cfg"
	"pathprof/internal/profile"
)

// Expectation is the offline analogue of a selected Trace: for one
// trace head, the path NET would most likely latch once the head
// crossed its threshold. An online NET run records the *next* path
// after the head turns hot; over a merged profile the statistically
// expected choice is the head's most frequent path, so that is what
// the profile service serves as its prediction.
type Expectation struct {
	Func  string  `json:"func"`
	Head  string  `json:"head"`  // "entry", or "b<ID>" for a loop-header head
	Count int64   `json:"count"` // total executions from this head
	Path  []int   `json:"path"`  // DAG edge IDs of the predicted trace
	Hits  int64   `json:"hits"`  // executions of the predicted trace
	Share float64 `json:"share"` // Hits / Count
}

// Expected derives NET hot-trace predictions from merged path
// profiles: paths are grouped by trace head (routine entry, or the
// loop header a path restarted at), heads below threshold are
// dropped, and each surviving head predicts its most frequent path
// (ties break toward the lexicographically smallest edge-ID
// sequence, so the output is deterministic for a given profile).
//
// Paths are read as edge-ID runs, and only a path's first edge is
// resolved, for its head. Paths decoded from the PPSNAP wire format
// resolve to no DAG edge, so every wire path folds to the
// routine-entry head; in-process profiles distinguish loop-header
// heads exactly as Observe does. threshold <= 0 uses DefaultThreshold.
func Expected(paths map[string]*profile.PathProfile, threshold int64) []Expectation {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	fns := make([]string, 0, len(paths))
	for fn := range paths { //ppp:allow(mapiter) — sorted below
		fns = append(fns, fn)
	}
	sort.Strings(fns)

	var out []Expectation
	for _, fn := range fns {
		pp := paths[fn]
		type headAgg struct {
			count     int64
			best      []int32
			bestCount int64
		}
		agg := map[int]*headAgg{} // head block ID; -1 = entry
		var heads []int
		for i := range pp.Distinct() {
			ids, count := pp.PathAt(i)
			if len(ids) == 0 {
				continue
			}
			h := -1
			if first := pp.Edge(ids[0]); first != nil && first.Kind != cfg.RealEdge && first.Dst != nil {
				h = first.Dst.ID
			}
			a := agg[h]
			if a == nil {
				a = &headAgg{}
				agg[h] = a
				heads = append(heads, h)
			}
			a.count = satAdd(a.count, count)
			if a.best == nil || better(ids, count, a.best, a.bestCount) {
				a.best, a.bestCount = ids, count
			}
		}
		sort.Ints(heads)
		for _, h := range heads {
			a := agg[h]
			if a.count < threshold {
				continue
			}
			name := "entry"
			if h >= 0 {
				name = fmt.Sprintf("b%d", h)
			}
			ids := make([]int, len(a.best))
			for i, id := range a.best {
				ids[i] = int(id)
			}
			out = append(out, Expectation{
				Func: fn, Head: name, Count: a.count,
				Path: ids, Hits: a.bestCount,
				Share: float64(a.bestCount) / float64(a.count),
			})
		}
	}
	return out
}

// better orders candidate traces, given as edge-ID runs with their
// counts: higher count wins, then the lexicographically smaller
// edge-ID sequence.
func better(a []int32, ac int64, b []int32, bc int64) bool {
	if ac != bc {
		return ac > bc
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// satAdd clamps at profile.CounterMax like every other merge-side sum.
func satAdd(a, b int64) int64 {
	if a > profile.CounterMax-b {
		return profile.CounterMax
	}
	return a + b
}
