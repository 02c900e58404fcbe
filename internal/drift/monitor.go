package drift

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
)

// Monitor tracks per-tenant drift between the live aggregate and the
// guide profile the served plans were built on. The guide is adopted
// implicitly at a tenant's first commit (the best stand-in before any
// replan) and replaced explicitly via SetGuide whenever the plan
// endpoint serves aggregate-guided plans — from then on, every commit
// re-scores the live aggregate against that frozen guide.
//
// Verdicts surface three ways: gauges
// (ppp_drift_flow_divergence{tenant=...}, ppp_drift_hot_overlap,
// ppp_drift_commits_since_replan, ppp_drift_secs_since_replan), an
// edge-triggered EvDrift decision-trace event on every transition
// into or out of the drifted state, and Report for the
// /v1/drift/{tenant} endpoint. A nil *Monitor is a valid no-op.
type Monitor struct {
	mu      sync.Mutex
	opts    Options
	reg     *telemetry.Registry
	now     func() time.Time
	tenants map[string]*tenantState
}

// tenantState is one tenant's frozen guide, flattened with its hot
// set when it is set, plus last verdict.
type tenantState struct {
	guide    *side // nil until adopted or set
	guideSeq uint64
	guideAt  time.Time
	commits  uint64 // commits since the guide was (re)adopted
	last     Report
	hasLast  bool
	drifted  bool

	divergence, hotOverlap  *telemetry.Gauge
	commitsSince, secsSince *telemetry.Gauge
}

// NewMonitor returns a monitor publishing into reg (which may be nil
// for a report-only monitor).
func NewMonitor(reg *telemetry.Registry, opts Options) *Monitor {
	return &Monitor{
		opts:    opts.fill(),
		reg:     reg,
		now:     time.Now,
		tenants: map[string]*tenantState{},
	}
}

// SetNow replaces the monitor's clock (tests).
func (m *Monitor) SetNow(now func() time.Time) {
	if m == nil || now == nil {
		return
	}
	m.mu.Lock()
	m.now = now
	m.mu.Unlock()
}

// state returns (creating if needed) the tenant's state. Caller holds
// m.mu.
func (m *Monitor) state(tenant string) *tenantState {
	st := m.tenants[tenant]
	if st == nil {
		label := fmt.Sprintf("{tenant=%q}", tenant)
		st = &tenantState{
			divergence: m.reg.Gauge("ppp_drift_flow_divergence"+label,
				"total-variation distance between live aggregate and guide profile flow"),
			hotOverlap: m.reg.Gauge("ppp_drift_hot_overlap"+label,
				"Jaccard overlap of guide vs live hot-edge sets"),
			commitsSince: m.reg.Gauge("ppp_drift_commits_since_replan"+label,
				"commits folded into the aggregate since the guide was adopted"),
			secsSince: m.reg.Gauge("ppp_drift_secs_since_replan"+label,
				"seconds since the guide profile was adopted"),
		}
		m.tenants[tenant] = st
	}
	return st
}

// SetGuide freezes edges as the tenant's guide profile: the baseline
// every later commit is scored against. seq is the aggregate sequence
// the guide was built from.
func (m *Monitor) SetGuide(tenant string, edges map[string]*profile.EdgeProfile, seq uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(tenant)
	st.guide = newSide(edges, m.opts.HotFlowFrac)
	st.guideSeq = seq
	st.guideAt = m.now()
	st.commits = 0
	st.commitsSince.Set(0)
	st.secsSince.Set(0)
}

// ObserveCommit re-scores the tenant after a committed batch swapped
// in a new aggregate. The first commit a tenant ever sees adopts the
// aggregate as its guide. Returns the fresh report.
func (m *Monitor) ObserveCommit(tenant string, edges map[string]*profile.EdgeProfile, seq uint64) Report {
	if m == nil {
		return Report{Tenant: tenant}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(tenant)
	live := newSide(edges, m.opts.HotFlowFrac)
	if st.guide == nil {
		st.guide = live
		st.guideSeq = seq
		st.guideAt = m.now()
		st.commits = 0
	} else {
		st.commits++
	}
	return m.score(tenant, st, live, seq)
}

// score computes, publishes, and records the tenant's report. Caller
// holds m.mu.
func (m *Monitor) score(tenant string, st *tenantState, live *side, liveSeq uint64) Report {
	rep := compareSides(st.guide, live, m.opts)
	rep.Tenant = tenant
	rep.GuideSeq = st.guideSeq
	rep.LiveSeq = liveSeq
	rep.CommitsSinceReplan = st.commits
	rep.SecsSinceReplan = m.now().Sub(st.guideAt).Seconds()

	st.divergence.Set(rep.FlowDivergence)
	st.hotOverlap.Set(rep.HotOverlap)
	st.commitsSince.Set(float64(rep.CommitsSinceReplan))
	st.secsSince.Set(rep.SecsSinceReplan)

	if rep.Drifted != st.drifted {
		detail := rep.Reason
		if !rep.Drifted {
			detail = "recovered inside drift envelope"
		}
		m.reg.Trace().Emit(telemetry.Event{
			Unit: "serve", Routine: tenant, Kind: telemetry.EvDrift,
			Flow: live.total, Detail: detail,
		})
		st.drifted = rep.Drifted
	}
	st.last, st.hasLast = rep, true
	return rep
}

// compareSides is Compare over already-flattened profiles, whose hot
// sets were taken at opts.HotFlowFrac.
func compareSides(guide, live *side, opts Options) Report {
	var rep Report
	rep.FlowDivergence = divergence(guide, live)
	rep.HotOverlap, rep.HotShared = overlap(guide.hot, live.hot)
	rep.HotGuide, rep.HotLive = len(guide.hot), len(live.hot)
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

// Report returns the tenant's last verdict with cadence fields
// refreshed against the monitor's clock; ok is false before the
// tenant's first commit.
func (m *Monitor) Report(tenant string) (Report, bool) {
	if m == nil {
		return Report{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.tenants[tenant]
	if st == nil || !st.hasLast {
		return Report{}, false
	}
	rep := st.last
	rep.SecsSinceReplan = m.now().Sub(st.guideAt).Seconds()
	st.secsSince.Set(rep.SecsSinceReplan)
	return rep, true
}

// Tenants lists tenants with at least one scored commit, sorted.
func (m *Monitor) Tenants() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.tenants))
	for name, st := range m.tenants { //ppp:allow(mapiter) — sorted below
		if st.hasLast {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
