package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// profOutcome is one profiler's result on one program: the
// fingerprint of its path profile (exact paths plus counter tables),
// its modeled costs, and its Figure 9/10 accuracy and coverage.
type profOutcome struct {
	Fingerprint string  `json:"fingerprint"`
	BaseCost    int64   `json:"base_cost"`
	InstrCost   int64   `json:"instr_cost"`
	Accuracy    float64 `json:"accuracy"`
	Coverage    float64 `json:"coverage"`
}

// planOutcome is one replanned plan set: its plan-IR fingerprint and
// the all-paths proof verdict.
type planOutcome struct {
	Fingerprint string `json:"fingerprint"`
	ProofOK     bool   `json:"proof_ok"`
}

type programRef struct {
	Profilers map[string]profOutcome `json:"profilers"`
	Plans     map[string]planOutcome `json:"plans"`
}

// reference holds the recorded outputs every suite and replan
// operation is checked against.
type reference struct {
	Programs map[string]*programRef `json:"programs"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &ref, nil
}

func (r *reference) program(name string) (*programRef, error) {
	p := r.Programs[name]
	if p == nil {
		return nil, fmt.Errorf("reference: no entry for program %s", name)
	}
	return p, nil
}

// checkProfilers compares one suite operation's outcomes with the
// recorded ones.
func (p *programRef) checkProfilers(name string, got map[string]profOutcome) error {
	for _, prof := range sortedKeys(p.Profilers) {
		if got[prof] != p.Profilers[prof] {
			return fmt.Errorf("%s/%s: got %+v, reference %+v", name, prof, got[prof], p.Profilers[prof])
		}
	}
	if len(got) != len(p.Profilers) {
		return fmt.Errorf("%s: %d profilers ran, reference has %d", name, len(got), len(p.Profilers))
	}
	return nil
}

// checkPlan compares one replanned plan set with the recorded one.
func (p *programRef) checkPlan(name, key string, got planOutcome) error {
	want, ok := p.Plans[key]
	if !ok {
		return fmt.Errorf("%s/%s: no reference plan", name, key)
	}
	if got != want {
		return fmt.Errorf("%s/%s: got %+v, reference %+v", name, key, got, want)
	}
	return nil
}

// record runs every program once through the suite and replan
// operations and writes their outcomes as the new reference.
func record(path string) error {
	ref := reference{Programs: map[string]*programRef{}}
	for _, w := range programs(nil) {
		st, sout, err := suiteOp(w, nil, nil)
		if err != nil {
			return err
		}
		rout, err := replanOp(st, nil, nil)
		if err != nil {
			return err
		}
		ref.Programs[w.Name] = &programRef{Profilers: sout.profilers, Plans: rout.plans}
		fmt.Fprintf(os.Stderr, "recorded %s\n", w.Name)
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
