package profile_test

import (
	"math/rand"
	"reflect"
	"testing"

	"pathprof/internal/profile"
)

// stateDiff is the oracle for Table.Diff: the first difference between
// two exported states, checked in Diff's documented order.
func stateDiff(g, w profile.TableState) (profile.TableDiff, bool) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	scalar := []struct {
		f         profile.TableField
		got, want int64
	}{
		{profile.DiffKind, int64(g.Kind), int64(w.Kind)},
		{profile.DiffN, g.N, w.N},
		{profile.DiffSize, g.Size, w.Size},
		{profile.DiffCold, g.Cold, w.Cold},
		{profile.DiffLost, g.Lost, w.Lost},
		{profile.DiffDrops, g.Drops, w.Drops},
		{profile.DiffSaturated, b2i(g.Saturated), b2i(w.Saturated)},
	}
	for _, c := range scalar {
		if c.got != c.want {
			return profile.TableDiff{Field: c.f, Got: c.got, Want: c.want}, true
		}
	}
	for i := range g.Arr {
		if g.Arr[i] != w.Arr[i] {
			return profile.TableDiff{Field: profile.DiffCounter, At: int64(i), Got: g.Arr[i], Want: w.Arr[i]}, true
		}
	}
	if len(g.Slots) != len(w.Slots) {
		return profile.TableDiff{Field: profile.DiffOccupied, Got: int64(len(g.Slots)), Want: int64(len(w.Slots))}, true
	}
	for i := range g.Slots {
		if g.Slots[i] != w.Slots[i] || g.Keys[i] != w.Keys[i] {
			return profile.TableDiff{Field: profile.DiffSlot, At: int64(g.Slots[i]), Got: g.Keys[i], Want: w.Keys[i]}, true
		}
		if g.Vals[i] != w.Vals[i] {
			return profile.TableDiff{Field: profile.DiffValue, At: g.Keys[i], Got: g.Vals[i], Want: w.Vals[i]}, true
		}
	}
	return profile.TableDiff{}, false
}

// checkDiff asserts a.Diff(b) reports a difference exactly when the
// exported states differ, and the same first difference as the oracle.
func checkDiff(t *testing.T, what string, a, b *profile.Table) {
	t.Helper()
	sa, sb := a.State(), b.State()
	got, differ := a.Diff(b)
	if want := !reflect.DeepEqual(sa, sb); differ != want {
		t.Fatalf("%s: Diff reports difference %v, State DeepEqual says %v (%+v)", what, differ, want, got)
	}
	if want, _ := stateDiff(sa, sb); got != want {
		t.Fatalf("%s: Diff = %+v, want %+v", what, got, want)
	}
}

// tableOp is one table operation: kind 0 Inc, 1 IncArray (Inc on hash
// tables), 2 Add, 3 BumpCold.
type tableOp struct {
	kind   int
	idx, v int64
}

// randomOp draws a seeded operation: in-range, out-of-range and
// colliding increments, weighted and saturating adds, and cold bumps.
func randomOp(r *rand.Rand) tableOp {
	var idx int64
	switch r.Intn(5) {
	case 0:
		idx = int64(r.Intn(64)) // in range of the array twins
	case 1:
		idx = int64(64 + r.Intn(8)) // past the array's end
	case 2:
		idx = -int64(1 + r.Intn(5)) // negative
	case 3:
		// Share the home slot 7 of the 701-slot hash table.
		idx = 7 + profile.HashSlots*int64(r.Intn(8)-4)
	default:
		idx = r.Int63() - r.Int63()
	}
	switch r.Intn(6) {
	case 0, 1:
		return tableOp{kind: 0, idx: idx}
	case 2:
		return tableOp{kind: 1, idx: idx}
	case 3:
		return tableOp{kind: 2, idx: idx, v: int64(r.Intn(4))}
	case 4:
		return tableOp{kind: 2, idx: idx, v: profile.CounterMax - int64(r.Intn(3))}
	}
	return tableOp{kind: 3}
}

func (op tableOp) apply(tab *profile.Table) {
	switch op.kind {
	case 0:
		tab.Inc(op.idx)
	case 1:
		if tab.Kind == profile.ArrayTable {
			tab.IncArray(op.idx)
		} else {
			tab.Inc(op.idx)
		}
	case 2:
		tab.Add(op.idx, op.v)
	case 3:
		tab.BumpCold()
	}
}

// TestTableDiffMatchesState drives twin array and hash tables through
// a shared seeded operation sequence, then lets them drift apart by a
// few one-sided operations, checking Diff against the State oracle
// after every step.
func TestTableDiffMatchesState(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	seen := map[profile.TableField]bool{}
	for trial := 0; trial < 400; trial++ {
		kind := profile.ArrayTable
		if trial%2 == 1 {
			kind = profile.HashTable
		}
		a, b := profile.NewTable(kind, 48, 64), profile.NewTable(kind, 48, 64)
		for i, n := 0, r.Intn(40); i < n; i++ {
			op := randomOp(r)
			op.apply(a)
			op.apply(b)
			checkDiff(t, "shared prefix", a, b)
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			side := a
			if r.Intn(2) == 0 {
				side = b
			}
			randomOp(r).apply(side)
			checkDiff(t, "drift", a, b)
			checkDiff(t, "drift, swapped", b, a)
			if d, differ := a.Diff(b); differ {
				seen[d.Field] = true
			}
		}
	}
	for _, f := range []profile.TableField{
		profile.DiffCold, profile.DiffDrops, profile.DiffSaturated, profile.DiffCounter,
		profile.DiffOccupied, profile.DiffSlot, profile.DiffValue,
	} {
		if !seen[f] {
			t.Errorf("no drift produced a difference in field %d", f)
		}
	}
}

// TestTableDiffFields plants one divergence per field and checks Diff
// names it with the right position and counts.
func TestTableDiffFields(t *testing.T) {
	arr := func() *profile.Table { return profile.NewTable(profile.ArrayTable, 48, 64) }
	hash := func() *profile.Table { return profile.NewTable(profile.HashTable, 48, 64) }
	fromState := func(slot int32, key, val int64) *profile.Table {
		tab, err := profile.NewTableFromState(profile.TableState{
			Kind: profile.HashTable, N: 48,
			Slots: []int32{slot}, Keys: []int64{key}, Vals: []int64{val},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	cases := []struct {
		name string
		a, b func() *profile.Table
		want profile.TableDiff
	}{
		{"kind", arr, hash, profile.TableDiff{Field: profile.DiffKind, Got: 0, Want: 1}},
		{"n", arr, func() *profile.Table { return profile.NewTable(profile.ArrayTable, 47, 64) },
			profile.TableDiff{Field: profile.DiffN, Got: 48, Want: 47}},
		{"size", arr, func() *profile.Table { return profile.NewTable(profile.ArrayTable, 48, 32) },
			profile.TableDiff{Field: profile.DiffSize, Got: 64, Want: 32}},
		{"cold", func() *profile.Table { x := arr(); x.BumpCold(); return x }, arr,
			profile.TableDiff{Field: profile.DiffCold, Got: 1, Want: 0}},
		{"lost", hash, func() *profile.Table { x := hash(); x.Lost = 3; return x },
			profile.TableDiff{Field: profile.DiffLost, Got: 0, Want: 3}},
		{"drops", func() *profile.Table { x := arr(); x.Inc(-1); x.Inc(64); return x }, arr,
			profile.TableDiff{Field: profile.DiffDrops, Got: 2, Want: 0}},
		{"saturated", func() *profile.Table {
			x := arr()
			x.Add(3, profile.CounterMax)
			x.Inc(3) // clamps: same counter, saturation flag raised
			return x
		}, func() *profile.Table { x := arr(); x.Add(3, profile.CounterMax); return x },
			profile.TableDiff{Field: profile.DiffSaturated, Got: 1, Want: 0}},
		{"array counter", func() *profile.Table { x := arr(); x.Inc(2); x.Inc(7); return x },
			func() *profile.Table { x := arr(); x.Inc(2); return x },
			profile.TableDiff{Field: profile.DiffCounter, At: 7, Got: 1, Want: 0}},
		{"occupied slots", func() *profile.Table { x := hash(); x.Inc(10); x.Inc(11); return x },
			func() *profile.Table { x := hash(); x.Inc(10); return x },
			profile.TableDiff{Field: profile.DiffOccupied, Got: 2, Want: 1}},
		// Key 10 recorded at two different slots.
		{"hash slot", func() *profile.Table { return fromState(10, 10, 1) },
			func() *profile.Table { return fromState(21, 10, 1) },
			profile.TableDiff{Field: profile.DiffSlot, At: 10, Got: 10, Want: 10}},
		// Keys 10 and 711 share home slot 10.
		{"key", func() *profile.Table { x := hash(); x.Inc(10); return x },
			func() *profile.Table { x := hash(); x.Inc(10 + profile.HashSlots); return x },
			profile.TableDiff{Field: profile.DiffSlot, At: 10, Got: 10, Want: 711}},
		{"value", func() *profile.Table { x := hash(); x.Inc(10); x.Inc(10); return x },
			func() *profile.Table { x := hash(); x.Inc(10); return x },
			profile.TableDiff{Field: profile.DiffValue, At: 10, Got: 2, Want: 1}},
	}
	for _, c := range cases {
		a, b := c.a(), c.b()
		got, differ := a.Diff(b)
		if !differ || got != c.want {
			t.Errorf("%s: Diff = %+v, %v; want %+v", c.name, got, differ, c.want)
		}
		checkDiff(t, c.name, a, b)
		checkDiff(t, c.name+", swapped", b, a)
	}
	if d, differ := arr().Diff(arr()); differ {
		t.Errorf("fresh twins differ: %+v", d)
	}
}

// TestDiffSlots compares dense edge slots, an unregistered slot
// counting as zero.
func TestDiffSlots(t *testing.T) {
	a, b := profile.NewEdgeProfile("f"), profile.NewEdgeProfile("f")
	for _, ep := range []*profile.EdgeProfile{a, b} {
		ep.Slot(0, 1)
		ep.Slot(1, 2)
	}
	if slot, _, _ := a.DiffSlots(b); slot != -1 {
		t.Fatalf("fresh twins differ at slot %d", slot)
	}
	a.BumpSlot(1)
	if slot, g, w := a.DiffSlots(b); slot != 1 || g != 1 || w != 0 {
		t.Errorf("DiffSlots = %d, %d, %d; want 1, 1, 0", slot, g, w)
	}
	b.BumpSlot(1)
	b.BumpSlot(b.Slot(2, 3))
	if slot, g, w := a.DiffSlots(b); slot != 2 || g != 0 || w != 1 {
		t.Errorf("DiffSlots = %d, %d, %d; want 2, 0, 1", slot, g, w)
	}
	a.Slot(2, 3)
	a.BumpSlot(2)
	if slot, _, _ := a.DiffSlots(b); slot != -1 {
		t.Errorf("equal profiles differ at slot %d", slot)
	}
}

// TestPathTotalMatchesCounts checks the running Total against the sum
// of the recorded counts through Add, Merge and Clone.
func TestPathTotalMatchesCounts(t *testing.T) {
	sum := func(pp *profile.PathProfile) int64 {
		var s int64
		for _, pc := range pp.Paths() {
			s += pc.Count
		}
		return s
	}
	r := rand.New(rand.NewSource(2))
	a, b := profile.NewPathProfile("f"), profile.NewPathProfile("f")
	for i := 0; i < 200; i++ {
		pp := a
		if i%3 == 0 {
			pp = b
		}
		pp.Add(path(r.Intn(3), r.Intn(4)), int64(r.Intn(5)))
		if pp.Total() != sum(pp) {
			t.Fatalf("step %d: Total %d, counts sum to %d", i, pp.Total(), sum(pp))
		}
	}
	a.Merge(b)
	if a.Total() != sum(a) {
		t.Fatalf("after Merge: Total %d, counts sum to %d", a.Total(), sum(a))
	}
	snap := &profile.Snapshot{Paths: map[string]*profile.PathProfile{"f": a}}
	c := snap.Clone().Paths["f"]
	c.Add(path(9), 4)
	if c.Total() != a.Total()+4 || c.Total() != sum(c) {
		t.Errorf("clone: Total %d, counts sum to %d, original %d", c.Total(), sum(c), a.Total())
	}
}
