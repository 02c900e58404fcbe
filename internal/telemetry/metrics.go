// Package telemetry is the observability layer of the profiling
// runtime: a zero-allocation metrics registry, a bounded decision
// trace recording why the planner and the degraded-mode ladder gave up
// flow, and a stdlib-only exposition surface (Prometheus text,
// expvar, pprof, trace export).
//
// The design mirrors internal/profile's sharded collectors: counters
// and histograms hand out one cache-line-padded cell per worker, each
// written with plain stores by exactly one goroutine (no atomics, no
// locks on the hot path), and reads fold the cells in index order so
// the folded value is deterministic for a given set of cell contents.
//
// Every emission point in the repository tolerates an uninstalled
// sink: a nil *Cell, *HistCell, *Trace, *Registry, or *VMMetrics is a
// valid no-op receiver, so instrumented code pays one predictable
// branch — and zero allocations — when telemetry is off. The
// telemetry benchmarks assert 0 allocs/op on both the nil and the
// installed paths.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Cell is one worker's private slot of a Counter: a plain int64 padded
// to a cache line so adjacent workers' cells never share one. Exactly
// one goroutine may write a given cell at a time; reads are exact once
// the writers have quiesced (RunReplicated folds after its WaitGroup),
// and best-effort while they run (a live /metrics scrape).
type Cell struct {
	n int64
	_ [56]byte // pad to 64 bytes so adjacent cells don't false-share
}

// Inc adds one to the cell. A nil cell (no sink installed) is a no-op
// costing one branch.
//
//ppp:hotpath
func (c *Cell) Inc() {
	if c == nil {
		return
	}
	c.n++
}

// Add adds v to the cell; nil-safe like Inc.
//
//ppp:hotpath
func (c *Cell) Add(v int64) {
	if c == nil {
		return
	}
	c.n += v
}

// Value reads the cell; a nil cell reads 0. Like a fold, it is exact
// once the cell's writer has quiesced.
func (c *Cell) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Counter is a monotonically increasing metric, sharded into
// per-worker cells. Hand Cell(w) to worker w; Value folds the cells
// in index order.
type Counter struct {
	name, help string
	cells      []Cell
}

// Cell returns worker w's cell, clamping w into range; a nil counter
// returns a nil cell, which is a valid no-op sink.
func (c *Counter) Cell(w int) *Cell {
	if c == nil {
		return nil
	}
	if w < 0 {
		w = 0
	}
	if w >= len(c.cells) {
		w = len(c.cells) - 1
	}
	return &c.cells[w]
}

// Value folds the cells in index order.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].n
	}
	return sum
}

// Gauge is a settable instantaneous value. Set/Value go through atomic
// bits because gauges are written by report code that may overlap a
// live scrape; gauges never sit on the VM hot path.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set replaces the gauge's value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

// Histogram is a cumulative-bucket distribution over int64
// observations, sharded into per-worker cells like Counter.
type Histogram struct {
	name, help string
	bounds     []int64 // ascending upper bounds; +Inf bucket is implicit
	cells      []HistCell
}

// HistCell is one worker's private histogram state. The bounds slice
// is shared (read-only) across cells; counts has len(bounds)+1 slots,
// the last being the +Inf bucket.
type HistCell struct {
	bounds []int64
	counts []int64
	sum    int64
	n      int64
	_      [64]byte // keep adjacent cell headers off one cache line
}

// Observe records v into its bucket with a linear scan over the (few)
// bounds. Nil-safe; zero allocations.
//
//ppp:hotpath
func (h *HistCell) Observe(v int64) {
	if h == nil {
		return
	}
	h.n++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.counts)-1]++
}

// Cell returns worker w's cell; nil-safe like Counter.Cell.
func (h *Histogram) Cell(w int) *HistCell {
	if h == nil {
		return nil
	}
	if w < 0 {
		w = 0
	}
	if w >= len(h.cells) {
		w = len(h.cells) - 1
	}
	return &h.cells[w]
}

// fold sums the cells in index order into cumulative bucket counts,
// total count, and sum.
func (h *Histogram) fold() (cum []int64, n, sum int64) {
	cum = make([]int64, len(h.bounds)+1)
	for i := range h.cells {
		c := &h.cells[i]
		for j, v := range c.counts {
			cum[j] += v
		}
		n += c.n
		sum += c.sum
	}
	for j := 1; j < len(cum); j++ {
		cum[j] += cum[j-1]
	}
	return cum, n, sum
}

// Count folds the total observation count across cells.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	_, n, _ := h.fold()
	return n
}

// Quantile estimates the p-quantile (0 < p <= 1) from the folded
// buckets with Prometheus-style linear interpolation inside the
// target bucket; observations in the +Inf bucket report the highest
// finite bound. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	cum, n, _ := h.fold()
	bounds := make([]float64, len(h.bounds))
	for i, b := range h.bounds {
		bounds[i] = float64(b)
	}
	return histQuantile(bounds, cum, n, p)
}

// histQuantile is the shared bucket-quantile estimator: bounds are the
// ascending finite upper bounds, cum the cumulative counts with one
// extra trailing +Inf entry, n the total count.
func histQuantile(bounds []float64, cum []int64, n int64, p float64) float64 {
	if n <= 0 || len(cum) == 0 {
		return 0
	}
	if p <= 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(n)
	for i, c := range cum {
		if float64(c) < target {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: report the highest finite bound, the
			// standard histogram_quantile behavior.
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lower := 0.0
		var prev int64
		if i > 0 {
			lower = bounds[i-1]
			prev = cum[i-1]
		}
		inBucket := c - prev
		if inBucket <= 0 {
			return bounds[i]
		}
		frac := (target - float64(prev)) / float64(inBucket)
		return lower + frac*(bounds[i]-lower)
	}
	return bounds[len(bounds)-1]
}

// HistStat is one histogram's folded summary for dashboards and
// reports.
type HistStat struct {
	Name          string
	Count, Sum    int64
	P50, P90, P99 float64
}

// NamedInt is one counter's folded value.
type NamedInt struct {
	Name  string
	Value int64
}

// NamedFloat is one gauge's value.
type NamedFloat struct {
	Name  string
	Value float64
}

// Registry owns the process's metrics and its decision trace. All
// constructors are idempotent: asking for an existing name returns the
// existing metric, so independent subsystems can share one registry
// without coordination. A nil registry is a valid no-op sink
// everywhere.
type Registry struct {
	workers int

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	trace    *Trace
	spans    *SpanRing
}

// NewRegistry returns a registry whose counters and histograms carry
// `workers` per-worker cells (minimum 1).
func NewRegistry(workers int) *Registry {
	if workers < 1 {
		workers = 1
	}
	return &Registry{
		workers:  workers,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		trace:    NewTrace(0),
		spans:    NewSpanRing(0),
	}
}

// Workers returns the per-metric cell count.
func (r *Registry) Workers() int {
	if r == nil {
		return 0
	}
	return r.workers
}

// Trace returns the registry's decision trace; nil for a nil registry
// (and a nil *Trace is itself a valid no-op sink).
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// Spans returns the registry's request-span ring; nil for a nil
// registry (and a nil *SpanRing is itself a valid no-op sink).
func (r *Registry) Spans() *SpanRing {
	if r == nil {
		return nil
	}
	return r.spans
}

// CounterStats returns every counter's folded value, sorted by name.
func (r *Registry) CounterStats() []NamedInt {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]NamedInt, 0, len(r.counters))
	for name, c := range r.counters { //ppp:allow(mapiter) — sorted below
		out = append(out, NamedInt{Name: name, Value: c.Value()})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// GaugeStats returns every gauge's value, sorted by name.
func (r *Registry) GaugeStats() []NamedFloat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]NamedFloat, 0, len(r.gauges))
	for name, g := range r.gauges { //ppp:allow(mapiter) — sorted below
		out = append(out, NamedFloat{Name: name, Value: g.Value()})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HistStats returns every histogram's folded summary (count, sum, and
// estimated p50/p90/p99), sorted by name.
func (r *Registry) HistStats() []HistStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists { //ppp:allow(mapiter) — sorted below
		hists = append(hists, h)
	}
	r.mu.Unlock()
	out := make([]HistStat, 0, len(hists))
	for _, h := range hists {
		_, n, sum := h.fold()
		out = append(out, HistStat{
			Name: h.name, Count: n, Sum: sum,
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counter returns the named counter, creating it on first use. The
// name may carry Prometheus labels inline: `ppp_x_total{workload="mcf"}`.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c := &Counter{name: name, help: help, cells: make([]Cell, r.workers)}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bounds on first use (the first bounds win).
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	h := &Histogram{name: name, help: help, bounds: append([]int64(nil), bounds...)}
	h.cells = make([]HistCell, r.workers)
	for i := range h.cells {
		h.cells[i].bounds = h.bounds
		h.cells[i].counts = make([]int64, len(h.bounds)+1)
	}
	r.hists[name] = h
	return h
}

// splitName separates an inline-labeled metric name into its base name
// and label body: `x{a="b"}` -> ("x", `a="b"`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base = name[:i]
		labels = strings.TrimSuffix(name[i+1:], "}")
		return base, labels
	}
	return name, ""
}

// seriesName renders base plus merged labels (existing labels first).
func seriesName(base, labels, extra string) string {
	all := labels
	if extra != "" {
		if all != "" {
			all += ","
		}
		all += extra
	}
	if all == "" {
		return base
	}
	return base + "{" + all + "}"
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format, families sorted by base name and series sorted
// within each family, so two writes over the same state are
// byte-identical. The decision trace contributes
// ppp_trace_events_total and ppp_trace_dropped_total.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters { //ppp:allow(mapiter) — sorted below
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges { //ppp:allow(mapiter) — sorted below
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists { //ppp:allow(mapiter) — sorted below
		hists = append(hists, h)
	}
	trace := r.trace
	spans := r.spans
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	type family struct {
		base, help, typ string
		lines           []string
	}
	fams := map[string]*family{}
	fam := func(base, help, typ string) *family {
		f := fams[base]
		if f == nil {
			f = &family{base: base, help: help, typ: typ}
			fams[base] = f
		}
		return f
	}
	for _, c := range counters {
		base, labels := splitName(c.name)
		f := fam(base, c.help, "counter")
		f.lines = append(f.lines, fmt.Sprintf("%s %d", seriesName(base, labels, ""), c.Value()))
	}
	for _, g := range gauges {
		base, labels := splitName(g.name)
		f := fam(base, g.help, "gauge")
		f.lines = append(f.lines, fmt.Sprintf("%s %s", seriesName(base, labels, ""),
			strconv.FormatFloat(g.Value(), 'g', -1, 64)))
	}
	for _, h := range hists {
		base, labels := splitName(h.name)
		f := fam(base, h.help, "histogram")
		cum, n, sum := h.fold()
		for i, b := range h.bounds {
			f.lines = append(f.lines, fmt.Sprintf("%s %d",
				seriesName(base+"_bucket", labels, fmt.Sprintf("le=%q", strconv.FormatInt(b, 10))), cum[i]))
		}
		f.lines = append(f.lines, fmt.Sprintf("%s %d", seriesName(base+"_bucket", labels, `le="+Inf"`), cum[len(cum)-1]))
		f.lines = append(f.lines, fmt.Sprintf("%s %d", seriesName(base+"_sum", labels, ""), sum))
		f.lines = append(f.lines, fmt.Sprintf("%s %d", seriesName(base+"_count", labels, ""), n))
	}
	if trace != nil {
		emitted, dropped := trace.Stats()
		f := fam("ppp_trace_events_total", "planner/runtime decision-trace events emitted", "counter")
		f.lines = append(f.lines, fmt.Sprintf("ppp_trace_events_total %d", emitted))
		f = fam("ppp_trace_dropped_total", "decision-trace events dropped by the bounded ring", "counter")
		f.lines = append(f.lines, fmt.Sprintf("ppp_trace_dropped_total %d", dropped))
	}
	if spans != nil {
		emitted, dropped := spans.Stats()
		f := fam("ppp_span_events_total", "request-scoped lifecycle spans emitted", "counter")
		f.lines = append(f.lines, fmt.Sprintf("ppp_span_events_total %d", emitted))
		f = fam("ppp_span_dropped_total", "request spans dropped by the bounded ring", "counter")
		f.lines = append(f.lines, fmt.Sprintf("ppp_span_dropped_total %d", dropped))
	}

	bases := make([]string, 0, len(fams))
	for b := range fams { //ppp:allow(mapiter) — sorted below
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for _, b := range bases {
		f := fams[b]
		sort.Strings(f.lines)
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.base, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.base, f.typ)
		for _, line := range f.lines {
			fmt.Fprintln(bw, line)
		}
	}
	return bw.Flush()
}

// ValidatePrometheus is a tiny stdlib checker for the Prometheus text
// exposition format: metric-name syntax, loose label syntax, a
// parseable float value on every sample line, and — for every family
// declared `# TYPE <name> histogram` — well-formed histogram
// exposition: strictly increasing `le` bucket bounds, monotone
// cumulative bucket counts, a terminal `+Inf` bucket, and `_sum` and
// `_count` series whose totals agree with the buckets. It exists so
// CI can assert /metrics output stays well-formed without a
// Prometheus dependency.
func ValidatePrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	var samples []promSample
	types := map[string]string{}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateCommentLine(line); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			if fields := strings.Fields(line); len(fields) == 4 && fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		s.line = lineNo
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("no samples in exposition")
	}
	return validateHistograms(types, samples)
}

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels string // raw label body, no braces
	value  float64
	line   int
}

// histGroup accumulates one histogram series group (one label set
// minus `le`) for consistency checking.
type histGroup struct {
	base     string
	buckets  []histBucket
	sum      float64
	count    float64
	hasSum   bool
	hasCount bool
	firstAt  int
}

type histBucket struct {
	le    float64
	value float64
	line  int
}

// validateHistograms cross-checks every family declared as a
// histogram: each label group must expose strictly increasing `le`
// bounds ending in `+Inf`, cumulative counts that never decrease, a
// `_count` equal to the `+Inf` bucket, and a `_sum` (zero when the
// count is zero).
func validateHistograms(types map[string]string, samples []promSample) error {
	groups := map[string]*histGroup{}
	group := func(base, labels string, at int) (*histGroup, error) {
		pairs, err := parseLabels(labels)
		if err != nil {
			return nil, err
		}
		rest := make([]string, 0, len(pairs))
		for _, p := range pairs {
			if p.key != "le" {
				rest = append(rest, p.key+"="+p.val)
			}
		}
		sort.Strings(rest)
		key := base + "\xff" + strings.Join(rest, ",")
		g := groups[key]
		if g == nil {
			g = &histGroup{base: base, firstAt: at}
			groups[key] = g
		}
		return g, nil
	}
	for _, s := range samples {
		base, suffix := histSeriesBase(s.name)
		if suffix == "" || types[base] != "histogram" {
			continue
		}
		g, err := group(base, s.labels, s.line)
		if err != nil {
			return fmt.Errorf("line %d: %w", s.line, err)
		}
		switch suffix {
		case "bucket":
			le, ok := labelValue(s.labels, "le")
			if !ok {
				return fmt.Errorf("line %d: histogram bucket %s has no le label", s.line, s.name)
			}
			bound, err := parseLe(le)
			if err != nil {
				return fmt.Errorf("line %d: %w", s.line, err)
			}
			g.buckets = append(g.buckets, histBucket{le: bound, value: s.value, line: s.line})
		case "sum":
			g.sum, g.hasSum = s.value, true
		case "count":
			g.count, g.hasCount = s.value, true
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups { //ppp:allow(mapiter) — sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := groups[k].check(); err != nil {
			return err
		}
	}
	return nil
}

func (g *histGroup) check() error {
	if len(g.buckets) == 0 {
		return fmt.Errorf("histogram %s (near line %d): no bucket series", g.base, g.firstAt)
	}
	sort.SliceStable(g.buckets, func(i, j int) bool { return g.buckets[i].le < g.buckets[j].le })
	for i := 1; i < len(g.buckets); i++ {
		prev, cur := g.buckets[i-1], g.buckets[i]
		if cur.le == prev.le {
			return fmt.Errorf("histogram %s: duplicate le=%g bucket (lines %d, %d)", g.base, cur.le, prev.line, cur.line)
		}
		if cur.value < prev.value {
			return fmt.Errorf("histogram %s: cumulative bucket counts decrease at le=%g (line %d): %g -> %g",
				g.base, cur.le, cur.line, prev.value, cur.value)
		}
	}
	last := g.buckets[len(g.buckets)-1]
	if !math.IsInf(last.le, 1) {
		return fmt.Errorf("histogram %s (near line %d): no terminal le=\"+Inf\" bucket", g.base, last.line)
	}
	if !g.hasCount {
		return fmt.Errorf("histogram %s (near line %d): missing _count series", g.base, g.firstAt)
	}
	if !g.hasSum {
		return fmt.Errorf("histogram %s (near line %d): missing _sum series", g.base, g.firstAt)
	}
	if g.count != last.value {
		return fmt.Errorf("histogram %s: _count %g disagrees with +Inf bucket %g", g.base, g.count, last.value)
	}
	if g.count == 0 && g.sum != 0 {
		return fmt.Errorf("histogram %s: zero observations but _sum %g", g.base, g.sum)
	}
	return nil
}

// histSeriesBase splits a histogram series name into its family base
// and suffix ("bucket", "sum", or "count"); suffix is empty for
// non-histogram-shaped names.
func histSeriesBase(name string) (base, suffix string) {
	for _, s := range [...]string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, s) && len(name) > len(s) {
			return name[:len(name)-len(s)], s[1:]
		}
	}
	return name, ""
}

// parseLe parses a bucket bound, accepting "+Inf".
func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("unparseable le bound %q", s)
	}
	return v, nil
}

func validateCommentLine(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP line: %s", line)
		}
	case "TYPE":
		if len(fields) != 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed TYPE line: %s", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
	}
	return nil
}

func parseSampleLine(line string) (promSample, error) {
	rest := line
	nameEnd := strings.IndexAny(rest, "{ \t")
	if nameEnd < 0 {
		return promSample{}, fmt.Errorf("sample with no value: %s", line)
	}
	s := promSample{name: rest[:nameEnd]}
	if !validMetricName(s.name) {
		return promSample{}, fmt.Errorf("invalid metric name %q", s.name)
	}
	rest = rest[nameEnd:]
	if strings.HasPrefix(rest, "{") {
		close := strings.IndexByte(rest, '}')
		if close < 0 {
			return promSample{}, fmt.Errorf("unterminated label set: %s", line)
		}
		s.labels = rest[1:close]
		if _, err := parseLabels(s.labels); err != nil {
			return promSample{}, fmt.Errorf("%w in %s", err, line)
		}
		rest = rest[close+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return promSample{}, fmt.Errorf("expected value [timestamp]: %s", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return promSample{}, fmt.Errorf("unparseable value %q", fields[0])
	}
	s.value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return promSample{}, fmt.Errorf("unparseable timestamp %q", fields[1])
		}
	}
	return s, nil
}

// labelPair is one parsed label, unquoted.
type labelPair struct {
	key, val string
}

// parseLabels parses `k="v",k2="v2"` label bodies. Escaped quotes
// inside values are tolerated by scanning for the closing quote with
// a backslash check.
func parseLabels(body string) ([]labelPair, error) {
	if strings.TrimSpace(body) == "" {
		return nil, nil
	}
	var out []labelPair
	rest := body
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("malformed label pair")
		}
		key := strings.TrimSpace(rest[:eq])
		if !validLabelName(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, fmt.Errorf("unquoted label value")
		}
		rest = rest[1:]
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated label value")
		}
		out = append(out, labelPair{key: key, val: rest[:end]})
		rest = rest[end+1:]
		if rest == "" {
			break
		}
		if !strings.HasPrefix(rest, ",") {
			return nil, fmt.Errorf("expected ',' between labels")
		}
		rest = rest[1:]
	}
	return out, nil
}

// labelValue extracts one label's (unescaped) value from a raw label
// body; ok is false when absent or the body is malformed.
func labelValue(body, key string) (string, bool) {
	pairs, err := parseLabels(body)
	if err != nil {
		return "", false
	}
	for _, p := range pairs {
		if p.key == key {
			return p.val, true
		}
	}
	return "", false
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
