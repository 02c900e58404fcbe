package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Span layers. A span is named after the layer whose public function
// it wraps, optionally followed by ".call" to tell calls of one layer
// apart; rootLayer marks an operation's own span, whose self time is
// the benchmark's glue (unattributed).
const (
	rootLayer     = "op"
	layerCore     = "core"
	layerLower    = "lower"
	layerVM       = "vm"
	layerCompile  = "vm/compile"
	layerInstr    = "instr"
	layerVerify   = "verify"
	layerPlanIR   = "planir"
	layerEval     = "eval"
	layerSnapshot = "snapshot"
	layerProfile  = "profile"
	layerServe    = "serve"
	noParent      = -1
)

// span is one timed call: name, start and end (ns since the tracer's
// origin), the span that caused it, and the operation it belongs to.
type span struct {
	Name   string `json:"name"`
	Client string `json:"client"`
	Op     string `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory for one goroutine. A nil or disabled
// tracer records nothing, so untraced runs execute the same calls.
type tracer struct {
	on     bool
	client string
	t0     time.Time
	spans  []span
	stack  []int
	op     string
}

// newTracer returns a tracer for one client goroutine; span IDs are
// unique within a client.
func newTracer(on bool, client string, t0 time.Time) *tracer {
	return &tracer{on: on, client: client, t0: t0}
}

// beginOp opens an operation's root span.
func (t *tracer) beginOp(op string) {
	if t == nil || !t.on {
		return
	}
	t.op = op
	t.begin(rootLayer)
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil || !t.on {
		return
	}
	parent := noParent
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Client: t.client, Op: t.op, ID: id, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || !t.on {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:n]
}

// opLayers is one traced operation's time split by layer: each span's
// self time (its duration minus its children's) goes to its layer.
type opLayers struct {
	total float64            // root span duration, ms
	self  map[string]float64 // layer -> self time, ms
	calls map[string]float64 // layer -> summed span duration, ms
}

// breakdown splits every traced operation into per-layer time, in
// operation order. Spans of one goroutine nest strictly, so a span's
// children cover disjoint parts of it.
func (t *tracer) breakdown() []opLayers {
	if t == nil {
		return nil
	}
	childNS := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != noParent {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	var out []opLayers
	opOf := make([]int, len(t.spans)) // span -> index of its operation in out
	for i, s := range t.spans {
		if s.Parent == noParent {
			opOf[i] = len(out)
			out = append(out, opLayers{
				total: ms(s.End - s.Start),
				self:  map[string]float64{},
				calls: map[string]float64{},
			})
		} else {
			opOf[i] = opOf[s.Parent]
		}
		o := out[opOf[i]]
		l := layerOf(s.Name)
		o.self[l] += ms(s.End - s.Start - childNS[i])
		if s.Parent != noParent {
			o.calls[l] += ms(s.End - s.Start)
		}
	}
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// layerOf strips a span name's ".call" suffix.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// callMedian is the median duration of every span with this exact
// name, across operations and tracers.
func callMedian(name string, tracers ...*tracer) float64 {
	var xs []float64
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.Name == name {
				xs = append(xs, ms(s.End-s.Start))
			}
		}
	}
	return median(xs)
}

// unattributed is the share of traced operation time not inside any
// named layer span.
func unattributed(ops []opLayers) float64 {
	var total, glue float64
	for _, o := range ops {
		total += o.total
		glue += o.self[rootLayer]
	}
	if total == 0 {
		return 0
	}
	return glue / total
}

// layerMedian is the median over traced operations of one layer's
// summed call time per operation.
func layerMedian(ops []opLayers, layer string) float64 {
	xs := make([]float64, 0, len(ops))
	for _, o := range ops {
		xs = append(xs, o.calls[layer])
	}
	return median(xs)
}

// writeSpans writes every tracer's spans as JSON lines under the
// checkout's build directory, once the run is over.
func writeSpans(workload string, seed uint64, tracers ...*tracer) (string, error) {
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var all []span
	for _, t := range tracers {
		if t != nil {
			all = append(all, t.spans...)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
