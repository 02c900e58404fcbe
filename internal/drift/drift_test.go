package drift

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
	"time"

	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
)

// edges builds a per-routine edge-profile map from (src, dst, count)
// triples for one routine.
func edges(routine string, triples ...[3]int64) map[string]*profile.EdgeProfile {
	ep := profile.NewEdgeProfile(routine)
	for _, tr := range triples {
		ep.Add(int(tr[0]), int(tr[1]), tr[2])
	}
	return map[string]*profile.EdgeProfile{routine: ep}
}

func TestCompareIdenticalProfilesNoDrift(t *testing.T) {
	guide := edges("work", [3]int64{0, 1, 900}, [3]int64{1, 2, 90}, [3]int64{2, 3, 10})
	live := edges("work", [3]int64{0, 1, 900}, [3]int64{1, 2, 90}, [3]int64{2, 3, 10})
	rep := Compare(guide, live, Options{})
	if rep.FlowDivergence != 0 {
		t.Fatalf("identical profiles diverge: %v", rep.FlowDivergence)
	}
	if rep.HotOverlap != 1 {
		t.Fatalf("identical hot sets overlap %v, want 1", rep.HotOverlap)
	}
	if rep.Drifted {
		t.Fatalf("identical profiles marked drifted: %s", rep.Reason)
	}
}

func TestCompareScaledProfileNoDrift(t *testing.T) {
	// Same shape, 10x the flow: distributions are identical, so more
	// traffic alone is not drift.
	guide := edges("work", [3]int64{0, 1, 900}, [3]int64{1, 2, 100})
	live := edges("work", [3]int64{0, 1, 9000}, [3]int64{1, 2, 1000})
	rep := Compare(guide, live, Options{})
	if rep.Drifted {
		t.Fatalf("scaled profile marked drifted (divergence %v): %s", rep.FlowDivergence, rep.Reason)
	}
}

func TestCompareShiftedWorkloadDrifts(t *testing.T) {
	// The hot edge moves: 0->1 dominated the guide, 5->6 dominates live.
	guide := edges("work", [3]int64{0, 1, 950}, [3]int64{5, 6, 50})
	live := edges("work", [3]int64{0, 1, 50}, [3]int64{5, 6, 950})
	rep := Compare(guide, live, Options{})
	if !rep.Drifted {
		t.Fatalf("shifted workload not marked drifted: divergence %v, overlap %v", rep.FlowDivergence, rep.HotOverlap)
	}
	if rep.FlowDivergence < 0.5 {
		t.Fatalf("shifted workload divergence %v, want >= 0.5", rep.FlowDivergence)
	}
	if rep.Reason == "" {
		t.Fatalf("drifted report carries no reason")
	}
}

func TestCompareDisjointRoutinesFullDivergence(t *testing.T) {
	guide := edges("alpha", [3]int64{0, 1, 100})
	live := edges("beta", [3]int64{0, 1, 100})
	rep := Compare(guide, live, Options{})
	if rep.FlowDivergence != 1 {
		t.Fatalf("disjoint profiles diverge %v, want 1", rep.FlowDivergence)
	}
	if rep.HotOverlap != 0 {
		t.Fatalf("disjoint hot sets overlap %v, want 0", rep.HotOverlap)
	}
}

func TestMonitorAdoptsGuideAndFiresOnShift(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	m := NewMonitor(reg, Options{})
	clock := time.Unix(1000, 0)
	m.SetNow(func() time.Time { return clock })

	steady := edges("work", [3]int64{0, 1, 900}, [3]int64{1, 2, 100})

	// First commit adopts the guide: zero drift by construction.
	rep := m.ObserveCommit("mcf", steady, 1)
	if rep.Drifted || rep.FlowDivergence != 0 {
		t.Fatalf("first commit drifted: %+v", rep)
	}

	// More of the same shape: still flat.
	clock = clock.Add(time.Minute)
	bigger := edges("work", [3]int64{0, 1, 1800}, [3]int64{1, 2, 200})
	rep = m.ObserveCommit("mcf", bigger, 2)
	if rep.Drifted {
		t.Fatalf("unshifted tenant drifted: %+v", rep)
	}
	if rep.CommitsSinceReplan != 1 {
		t.Fatalf("commits since replan = %d, want 1", rep.CommitsSinceReplan)
	}
	if rep.SecsSinceReplan != 60 {
		t.Fatalf("secs since replan = %v, want 60", rep.SecsSinceReplan)
	}

	// The workload mix shifts: the monitor must fire.
	clock = clock.Add(time.Minute)
	shifted := edges("work", [3]int64{0, 1, 1800}, [3]int64{1, 2, 200}, [3]int64{7, 8, 20000})
	rep = m.ObserveCommit("mcf", shifted, 3)
	if !rep.Drifted {
		t.Fatalf("shifted tenant not drifted: %+v", rep)
	}

	// An unshifted tenant observed in parallel stays flat.
	rep2 := m.ObserveCommit("gcc", steady, 1)
	rep2 = m.ObserveCommit("gcc", edges("work", [3]int64{0, 1, 2700}, [3]int64{1, 2, 300}), 2)
	if rep2.Drifted {
		t.Fatalf("parallel unshifted tenant drifted: %+v", rep2)
	}

	// Edge-triggered decision-trace event for the drift transition.
	evs := reg.Trace().Snapshot()
	var driftEvents int
	for _, e := range evs {
		if e.Kind == telemetry.EvDrift && e.Routine == "mcf" {
			driftEvents++
			if !strings.Contains(e.Detail, "divergence") && !strings.Contains(e.Detail, "overlap") {
				t.Fatalf("drift event detail %q names no metric", e.Detail)
			}
		}
	}
	if driftEvents != 1 {
		t.Fatalf("drift transitions emitted %d events, want 1 (edge-triggered)", driftEvents)
	}

	// Report endpoint view agrees; tenants are listed sorted.
	got, ok := m.Report("mcf")
	if !ok || !got.Drifted {
		t.Fatalf("Report(mcf) = %+v, %v", got, ok)
	}
	if names := m.Tenants(); len(names) != 2 || names[0] != "gcc" || names[1] != "mcf" {
		t.Fatalf("Tenants() = %v", names)
	}

	// Replanning resets the envelope: guide becomes the live shape.
	m.SetGuide("mcf", shifted, 3)
	rep = m.ObserveCommit("mcf", shifted, 4)
	if rep.Drifted {
		t.Fatalf("post-replan commit still drifted: %+v", rep)
	}
	// ... and the recovery transition emits exactly one more event.
	var recoveries int
	for _, e := range reg.Trace().Snapshot() {
		if e.Kind == telemetry.EvDrift && e.Routine == "mcf" && strings.Contains(e.Detail, "recovered") {
			recoveries++
		}
	}
	if recoveries != 1 {
		t.Fatalf("recovery transitions emitted %d events, want 1", recoveries)
	}
}

func TestMonitorPublishesGauges(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	m := NewMonitor(reg, Options{})
	m.ObserveCommit("mcf", edges("work", [3]int64{0, 1, 100}), 1)
	m.ObserveCommit("mcf", edges("work", [3]int64{9, 10, 5000}), 2)
	var found bool
	for _, g := range reg.GaugeStats() {
		if g.Name == `ppp_drift_flow_divergence{tenant="mcf"}` {
			found = true
			if g.Value < 0.25 {
				t.Fatalf("divergence gauge %v did not cross threshold", g.Value)
			}
		}
	}
	if !found {
		t.Fatalf("no per-tenant divergence gauge published; gauges: %+v", reg.GaugeStats())
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	m.SetGuide("x", nil, 1)
	if rep := m.ObserveCommit("x", nil, 1); rep.Tenant != "x" {
		t.Fatalf("nil monitor ObserveCommit = %+v", rep)
	}
	if _, ok := m.Report("x"); ok {
		t.Fatalf("nil monitor has a report")
	}
	if names := m.Tenants(); names != nil {
		t.Fatalf("nil monitor lists tenants: %v", names)
	}
}

// The map-based scoring this package computed before it flattened
// profiles into key-ordered slices, kept as the oracle the slice code
// must match report for report, floats bit for bit.

func oracleFlatten(edges map[string]*profile.EdgeProfile) map[flowKey]int64 {
	out := map[flowKey]int64{}
	for name, ep := range edges { //ppp:allow(mapiter) — consumers sort
		if ep == nil {
			continue
		}
		for k, v := range ep.Freq() { //ppp:allow(mapiter) — consumers sort
			if v > 0 {
				out[flowKey{routine: name, src: k.Src, dst: k.Dst}] += v
			}
		}
	}
	return out
}

func oracleSortedKeys(a, b map[flowKey]int64) []flowKey {
	seen := map[flowKey]bool{}
	keys := make([]flowKey, 0, len(a)+len(b))
	for k := range a { //ppp:allow(mapiter) — sorted below
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range b { //ppp:allow(mapiter) — sorted below
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].routine != keys[j].routine {
			return keys[i].routine < keys[j].routine
		}
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	return keys
}

func oracleTotal(d map[flowKey]int64) int64 {
	var n int64
	for _, v := range d { //ppp:allow(mapiter) — commutative int sum
		n += v
	}
	return n
}

func oracleDivergence(guide, live map[flowKey]int64) float64 {
	gTotal, lTotal := oracleTotal(guide), oracleTotal(live)
	if gTotal == 0 && lTotal == 0 {
		return 0
	}
	if gTotal == 0 || lTotal == 0 {
		return 1
	}
	var sum float64
	for _, k := range oracleSortedKeys(guide, live) {
		p := float64(guide[k]) / float64(gTotal)
		q := float64(live[k]) / float64(lTotal)
		sum += math.Abs(p - q)
	}
	return sum / 2
}

func oracleHotSet(d map[flowKey]int64, frac float64) map[flowKey]bool {
	tot := oracleTotal(d)
	if tot == 0 {
		return nil
	}
	keys := make([]flowKey, 0, len(d))
	for k := range d { //ppp:allow(mapiter) — sorted below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if d[keys[i]] != d[keys[j]] {
			return d[keys[i]] > d[keys[j]]
		}
		if keys[i].routine != keys[j].routine {
			return keys[i].routine < keys[j].routine
		}
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	need := int64(math.Ceil(frac * float64(tot)))
	hot := map[flowKey]bool{}
	var covered int64
	for _, k := range keys {
		if covered >= need {
			break
		}
		hot[k] = true
		covered += d[k]
	}
	return hot
}

func oracleOverlap(a, b map[flowKey]bool) (jaccard float64, shared int) {
	if len(a) == 0 && len(b) == 0 {
		return 1, 0
	}
	union := len(b)
	for k := range a { //ppp:allow(mapiter) — counting only
		if b[k] {
			shared++
		} else {
			union++
		}
	}
	return float64(shared) / float64(union), shared
}

func oracleCompare(guide, live map[string]*profile.EdgeProfile, opts Options) Report {
	opts = opts.fill()
	g, l := oracleFlatten(guide), oracleFlatten(live)
	var rep Report
	rep.FlowDivergence = oracleDivergence(g, l)
	gHot, lHot := oracleHotSet(g, opts.HotFlowFrac), oracleHotSet(l, opts.HotFlowFrac)
	var jac float64
	jac, rep.HotShared = oracleOverlap(gHot, lHot)
	rep.HotOverlap = jac
	rep.HotGuide, rep.HotLive = len(gHot), len(lHot)
	switch {
	case rep.FlowDivergence >= opts.DivergenceThreshold:
		rep.Drifted = true
		rep.Reason = fmt.Sprintf("flow divergence %.3f >= %.3f", rep.FlowDivergence, opts.DivergenceThreshold)
	case rep.HotOverlap <= opts.OverlapFloor && (rep.HotGuide > 0 || rep.HotLive > 0):
		rep.Drifted = true
		rep.Reason = fmt.Sprintf("hot-set overlap %.3f <= %.3f", rep.HotOverlap, opts.OverlapFloor)
	}
	return rep
}

// randomEdges draws a per-routine edge-profile map: up to four
// routines (sometimes none, sometimes a nil profile), edges counted
// through Slot/BumpSlot, Add or both, and counts from
// a small range, so ties, zero counts and routine-only profiles are
// common.
func randomEdges(rng *rand.Rand) map[string]*profile.EdgeProfile {
	out := map[string]*profile.EdgeProfile{}
	for _, name := range []string{"alpha", "beta", "main", "work"} {
		switch rng.IntN(4) {
		case 0:
			continue
		case 1:
			if rng.IntN(4) == 0 {
				out[name] = nil
				continue
			}
		}
		ep := profile.NewEdgeProfile(name)
		for range rng.IntN(12) {
			src, dst, v := rng.IntN(5), rng.IntN(5), int64(rng.IntN(6))
			if rng.IntN(2) == 0 {
				slot := ep.Slot(src, dst)
				for range v {
					ep.BumpSlot(slot)
				}
			} else {
				ep.Add(src, dst, v)
			}
		}
		out[name] = ep
	}
	return out
}

// TestCompareMatchesMapOracle: over seeded random pairs of profiles,
// Compare and the Monitor (guide set, then a commit scored) produce
// exactly the oracle's report, at several hot-flow fractions.
func TestCompareMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 7))
	for i := range 2000 {
		guide, live := randomEdges(rng), randomEdges(rng)
		opts := Options{HotFlowFrac: []float64{0, 0.3, 0.5, 0.9, 1}[i%5]}
		want := oracleCompare(guide, live, opts)
		if got := Compare(guide, live, opts); got != want {
			t.Fatalf("pair %d: Compare = %+v, oracle %+v", i, got, want)
		}
		m := NewMonitor(nil, opts)
		m.SetNow(func() time.Time { return time.Unix(0, 0) })
		m.SetGuide("t", guide, 1)
		got := m.ObserveCommit("t", live, 2)
		want.Tenant, want.GuideSeq, want.LiveSeq, want.CommitsSinceReplan = "t", 1, 2, 1
		if got != want {
			t.Fatalf("pair %d: Monitor = %+v, oracle %+v", i, got, want)
		}
	}
}
