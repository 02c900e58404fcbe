// Package workloads provides the 18 SPEC2000-shaped synthetic
// benchmarks the evaluation runs, one per benchmark row of the paper's
// Tables 1-2. The paper used the SPEC2000 C and Fortran 77 suites on
// ref inputs; those are proprietary and billions of paths long, so
// each workload here is a mini-C program engineered to match its
// counterpart's *path shape* at laptop scale (hundreds of thousands of
// dynamic paths instead of billions):
//
//   - path-count scale and hot-path concentration (Table 2),
//   - branches per path and loop- vs branch-domination (Table 1),
//   - inlining and unrolling applicability (Table 1),
//   - hash-table pressure (crafty), self-adjusting-criterion triggers
//     (vpr, mesa), and zero-instrumentation programs (swim, mgrid).
//
// All programs are deterministic: branch decisions come from an
// in-language linear congruential generator.
package workloads

// Workload is one synthetic benchmark.
type Workload struct {
	Name  string
	Class string // "INT" or "FP"
	Desc  string
	// SPEC describes the SPEC2000 counterpart's shape this program
	// imitates.
	SPEC   string
	Source string
}

// lcg is the shared pseudo-random kernel: a 31-bit LCG plus helpers.
// Each program seeds it differently.
const lcg = `
var seed = 88172645;
func rnd() {
	seed = (seed * 1103515245 + 12345) % 2147483648;
	if (seed < 0) { seed = 0 - seed; }
	return seed;
}
`

// All returns the workloads in the paper's presentation order
// (integer benchmarks first).
func All() []Workload {
	return []Workload{
		wVpr, wMcf, wCrafty, wParser, wPerlbmk, wGap, wBzip2, wTwolf,
		wWupwise, wSwim, wMgrid, wApplu, wMesa, wArt, wEquake, wAmmp,
		wSixtrack, wApsi,
	}
}

// ByName returns the named workload.
func ByName(name string) (Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Names returns all workload names in order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, w := range all {
		out[i] = w.Name
	}
	return out
}
