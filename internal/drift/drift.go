// Package drift measures how far a tenant's live aggregate profile
// has moved from the guide profile its served plans were built on.
// It is the promotion sensor for the adaptive re-instrumentation
// loop: when divergence crosses a threshold (or the hot-path sets
// stop overlapping), the plans the service hands out are optimizing
// yesterday's workload and a replan is worth its cost.
//
// Two complementary metrics, both computed over the per-routine edge
// profiles the service already aggregates:
//
//   - Flow divergence: total-variation distance between the guide's
//     and the live profile's normalized flow distributions over
//     (routine, edge) items — 0 when identical, 1 when disjoint.
//     Weighted by flow, so a shift in a hot loop moves it far more
//     than churn in cold cleanup code.
//
//   - Hot overlap: Jaccard overlap of the hot-edge sets, where a
//     profile's hot set is the minimal count-descending prefix of
//     its items covering HotFlowFrac of total flow. This catches the
//     failure mode TV distance underweights: the *identity* of the
//     paths worth optimizing changing even while mass stays spread
//     similarly.
//
// Each profile is flattened once into its flow items in key order, and
// every fold walks them in that order, so reports are deterministic
// for a given pair of profiles.
package drift

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"pathprof/internal/profile"
)

// Options tune the drift verdict.
type Options struct {
	// HotFlowFrac is the fraction of total flow a profile's hot set
	// must cover (default 0.9).
	HotFlowFrac float64
	// DivergenceThreshold marks the tenant drifted when flow
	// divergence reaches it (default 0.25).
	DivergenceThreshold float64
	// OverlapFloor marks the tenant drifted when hot overlap falls to
	// or below it (default 0.5).
	OverlapFloor float64
}

// fill applies defaults for zero fields.
func (o Options) fill() Options {
	if o.HotFlowFrac <= 0 || o.HotFlowFrac > 1 {
		o.HotFlowFrac = 0.9
	}
	if o.DivergenceThreshold <= 0 {
		o.DivergenceThreshold = 0.25
	}
	if o.OverlapFloor <= 0 {
		o.OverlapFloor = 0.5
	}
	return o
}

// Report is one tenant's drift verdict, shaped for the
// /v1/drift/{tenant} endpoint and the dashboard.
type Report struct {
	Tenant             string  `json:"tenant"`
	GuideSeq           uint64  `json:"guide_seq"`
	LiveSeq            uint64  `json:"live_seq"`
	CommitsSinceReplan uint64  `json:"commits_since_replan"`
	SecsSinceReplan    float64 `json:"secs_since_replan"`
	FlowDivergence     float64 `json:"flow_divergence"`
	HotOverlap         float64 `json:"hot_overlap"`
	HotGuide           int     `json:"hot_guide"`
	HotLive            int     `json:"hot_live"`
	HotShared          int     `json:"hot_shared"`
	Drifted            bool    `json:"drifted"`
	Reason             string  `json:"reason,omitempty"`
}

// flowKey identifies one (routine, edge) flow item.
type flowKey struct {
	routine  string
	src, dst int
}

func (k flowKey) String() string {
	return fmt.Sprintf("%s:b%d->b%d", k.routine, k.src, k.dst)
}

// compareKeys orders flow items by routine, then source, then
// destination block: the order every fold below runs in.
func compareKeys(a, b flowKey) int {
	if c := strings.Compare(a.routine, b.routine); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.dst, b.dst)
}

// flow is one flow item and its count.
type flow struct {
	flowKey
	count int64
}

// side is one profile of a comparison, flattened once: its flow items
// with a nonzero count in key order, its total flow, and its hot set
// in key order.
type side struct {
	flows []flow
	total int64
	hot   []flowKey
}

// newSide flattens a per-routine edge-profile map into one flow
// distribution over (routine, edge) items: routines in name order,
// each routine's edges in (src, dst) order as AppendCounts lists them,
// so the items come out in key order with no sort.
func newSide(edges map[string]*profile.EdgeProfile, hotFrac float64) *side {
	names := make([]string, 0, len(edges))
	for name, ep := range edges { //ppp:allow(mapiter) — sorted below
		if ep != nil {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	sd := &side{}
	var counts []profile.EdgeCount
	for _, name := range names {
		counts = edges[name].AppendCounts(counts[:0])
		for _, ec := range counts {
			if ec.Count > 0 {
				sd.flows = append(sd.flows, flow{flowKey{name, ec.Src, ec.Dst}, ec.Count})
				sd.total += ec.Count
			}
		}
	}
	sd.hot = hotSet(sd.flows, sd.total, hotFrac)
	return sd
}

// divergence is the total-variation distance between the normalized
// distributions: 0.5 · Σ |p(k) − q(k)| over the union of items,
// folded in key order (a merge of the two key-ordered lists) so the
// float sum is deterministic.
func divergence(guide, live *side) float64 {
	if guide.total == 0 && live.total == 0 {
		return 0
	}
	if guide.total == 0 || live.total == 0 {
		return 1
	}
	gTotal, lTotal := float64(guide.total), float64(live.total)
	g, l := guide.flows, live.flows
	var sum float64
	for len(g) > 0 || len(l) > 0 {
		c := 0
		switch {
		case len(g) == 0:
			c = 1
		case len(l) == 0:
			c = -1
		default:
			c = compareKeys(g[0].flowKey, l[0].flowKey)
		}
		var p, q float64
		if c <= 0 {
			p = float64(g[0].count) / gTotal
			g = g[1:]
		}
		if c >= 0 {
			q = float64(l[0].count) / lTotal
			l = l[1:]
		}
		sum += math.Abs(p - q)
	}
	return sum / 2
}

// hotSet returns, in key order, the minimal count-descending prefix
// of the key-ordered items flows (whose counts sum to total) covering
// frac of the total flow. Ties take the lower key first, which a
// stable sort of the key-ordered items gives.
func hotSet(flows []flow, total int64, frac float64) []flowKey {
	if total == 0 {
		return nil
	}
	order := make([]int32, len(flows))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(flows[b].count, flows[a].count) })
	need := int64(math.Ceil(frac * float64(total)))
	var covered int64
	n := 0
	for _, i := range order {
		if covered >= need {
			break
		}
		covered += flows[i].count
		n++
	}
	hot := order[:n]
	slices.Sort(hot)
	keys := make([]flowKey, n)
	for k, i := range hot {
		keys[k] = flows[i].flowKey
	}
	return keys
}

// overlap is the Jaccard overlap |a∩b| / |a∪b| of two key-ordered
// sets; 1 when both are empty (nothing to disagree about).
func overlap(a, b []flowKey) (jaccard float64, shared int) {
	if len(a) == 0 && len(b) == 0 {
		return 1, 0
	}
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := compareKeys(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			shared++
			i++
			j++
		}
	}
	return float64(shared) / float64(len(a)+len(b)-shared), shared
}

// Compare computes the drift report between a guide profile and a
// live aggregate (both per-routine edge-profile maps). Seq and
// cadence fields are left for the caller (Monitor) to fill.
func Compare(guide, live map[string]*profile.EdgeProfile, opts Options) Report {
	opts = opts.fill()
	return compareSides(newSide(guide, opts.HotFlowFrac), newSide(live, opts.HotFlowFrac), opts)
}
