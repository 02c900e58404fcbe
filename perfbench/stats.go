package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricName is the grammar every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric name.
func validName(name string) bool { return metricName.MatchString(name) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects named values and rejects invalid or duplicate names.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if !validName(name) {
		panic(fmt.Sprintf("perfbench: invalid metric name %q", name))
	}
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("perfbench: metric %q reported twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// tally counts operations and failures; ok_frac is derived from it.
type tally struct {
	attempted, failed int
}

// record counts one operation; a non-nil error marks it failed.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

// okFrac is the share of attempted operations whose output matched
// the reference. No attempts at all is a failure, not a perfect score.
func (t tally) okFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// beyond returns how many of n sorted samples lie strictly above the
// p-th percentile's rank (p in (0,100)).
func beyond(n int, p float64) int {
	return n - int(math.Ceil(float64(n)*p/100))
}

// tailOK reports whether the p-th percentile of n samples has at
// least ten samples beyond it, the rule every reported tail obeys.
func tailOK(n int, p float64) bool { return beyond(n, p) >= 10 }

// minSamples is the smallest sample count whose p-th percentile has
// ten samples beyond it.
func minSamples(p float64) int {
	n := 10
	for !tailOK(n, p) {
		n++
	}
	return n
}

// quantile returns the Harrell-Davis estimate of the p-th percentile
// of xs (sorted or not; xs is not modified): the order statistics'
// mean weighted by a Beta((n+1)p, (n+1)(1-p)) distribution over their
// ranks. A nearest-rank or interpolated percentile rests on one or two
// samples; where the samples form clusters, as suite's 18 programs do,
// which cluster those few fall in changes from run to run, while the
// weighted mean moves smoothly.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := p/100*(n+1), (1-p/100)*(n+1)
	var sum, prev float64
	for i, x := range s {
		cdf := betaInc(float64(i+1)/n, a, b)
		sum += (cdf - prev) * x
		prev = cdf
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz).
func betaInc(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	// The fraction converges fast for x below the mean; above it, use
	// the symmetry I_x(a, b) = 1 - I_{1-x}(b, a).
	if x > (a+1)/(a+b+2) {
		return 1 - betaInc(1-x, b, a)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	const tiny, eps = 1e-300, 1e-15
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= 100000; i++ {
		m := float64(i / 2)
		var num float64
		switch {
		case i == 0:
			num = 1
		case i%2 == 0:
			num = m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		default:
			num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		}
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		f *= c * d
		if math.Abs(1-c*d) < eps {
			break
		}
	}
	return front * (f - 1) / a
}

// median returns the middle value (mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, the spread rule the bounds are judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// latency summarizes one operation class: its median and a fixed
// tail percentile, both Harrell-Davis estimates.
type latency struct {
	samples []float64 // ms
	tailP   float64
}

func (l *latency) add(ms float64) { l.samples = append(l.samples, ms) }

// report sets <prefix>p50_ms and <prefix>tail_ms. A tail without ten
// samples beyond it is an error: the workload guarantees enough
// operations, so a shortfall means the run itself went wrong.
func (l *latency) report(m metrics, prefix string) error {
	n := len(l.samples)
	if !tailOK(n, l.tailP) {
		return fmt.Errorf("%d %slatency samples leave fewer than 10 beyond p%g", n, prefix, l.tailP)
	}
	m.set(prefix+"p50_ms", "ms", quantile(l.samples, 50))
	m.set(prefix+"tail_ms", "ms", quantile(l.samples, l.tailP))
	return nil
}
