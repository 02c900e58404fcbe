package compile

// MutatedSite records where the test mutation hook struck.
type MutatedSite struct {
	Fn       string
	From, To int
}

// mutateFirst arms the lowering-mutation hook: the first transition
// compiled after the call that apply corrupts (apply reports whether
// it did) is recorded in the returned struct. Disarm with
// ClearMutateSucc.
func mutateFirst(apply func(c *succConsts) bool) *MutatedSite {
	site := &MutatedSite{From: -1, To: -1}
	testMutateSucc = func(fn string, from, to int, c *succConsts) {
		if site.From >= 0 || !apply(c) {
			return
		}
		*site = MutatedSite{Fn: fn, From: from, To: to}
	}
	return site
}

// MutateFirstSuccBase arms the hook to add delta to the first
// transition's folded base-cost constant — a deliberate
// miscompilation.
func MutateFirstSuccBase(delta int64) *MutatedSite {
	return mutateFirst(func(c *succConsts) bool { c.Base += delta; return true })
}

// MutateFirstSuccSteps arms the hook to corrupt the folded step-count
// constant instead, covering the solo-successor charge fold.
func MutateFirstSuccSteps(delta int64) *MutatedSite {
	return mutateFirst(func(c *succConsts) bool { c.Steps += delta; return true })
}

// MutateFirstSuccEdgeSlot arms the hook to move the edge-counter bump
// of the first transition that has one delta slots along, so the
// compiled code counts the wrong edge.
func MutateFirstSuccEdgeSlot(delta int32) *MutatedSite {
	return mutateFirst(func(c *succConsts) bool {
		if c.EdgeSlot < 0 {
			return false
		}
		c.EdgeSlot += delta
		return true
	})
}

// MutateFirstSuccAdd arms the hook to add delta to the register-fold
// add constant of the first transition that applies the fold, so the
// compiled code leaves the wrong path register.
func MutateFirstSuccAdd(delta int64) *MutatedSite {
	return mutateFirst(func(c *succConsts) bool {
		if !c.Fold {
			return false
		}
		c.Add += delta
		return true
	})
}

// MutateFirstSuccICost arms the hook to add delta to the first
// transition's folded instrumentation-cost constant.
func MutateFirstSuccICost(delta int64) *MutatedSite {
	return mutateFirst(func(c *succConsts) bool { c.ICost += delta; return true })
}

// ClearMutateSucc disarms the lowering-mutation hook.
func ClearMutateSucc() { testMutateSucc = nil }

// RedriveArms drives every arm of the routine v last validated through
// every probe again, on the same twin containers.
func (v *Validator) RedriveArms() error { return v.driveArms() }
