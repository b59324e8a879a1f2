package autotune

import (
	"reflect"
	"strings"
	"testing"

	"critter/internal/critter"
)

// tinyStudy is a minimal synthetic study for executor tests: two
// configurations of a single computation kernel on two ranks.
func tinyStudy(name string) Study {
	return Study{
		Name:       name,
		NumConfigs: 2,
		WorldSize:  2,
		Policies:   []critter.Policy{critter.Conditional},
		Run: func(p *critter.Profiler, cc *critter.Comm, v int) {
			n := 4 << v
			for i := 0; i < 8; i++ {
				p.Kernel("work", n, 0, 0, 0, float64(n*n), func() {})
			}
			cc.Barrier()
		},
		Describe: func(v int) string { return "tiny" },
	}
}

// panicStudy fails on every configuration.
func panicStudy() Study {
	st := tinyStudy("boom-study")
	st.Run = func(p *critter.Profiler, cc *critter.Comm, v int) {
		panic("kaboom")
	}
	return st
}

// observable returns a copy of res without the one counter that depends
// on how sweeps were scheduled across workers: which sweep computed a
// shared reference (ReferencesRun). Every other value, the memoization
// counters included, must match bit-for-bit.
func observable(res *Result) *Result {
	out := *res
	out.Sweeps = make([][]SweepResult, len(res.Sweeps))
	for pi, row := range res.Sweeps {
		out.Sweeps[pi] = make([]SweepResult, len(row))
		for ei, sw := range row {
			out.Sweeps[pi][ei] = observableSweep(sw)
		}
	}
	return &out
}

// observableSweep is observable for one sweep.
func observableSweep(sw SweepResult) SweepResult {
	sw.ReferencesRun = 0
	return sw
}

// TestRunParallelDeterminism is the executor's core contract: a pool of
// four workers must return SweepResults identical to the sequential path,
// because every sweep runs in its own world seeded identically.
func TestRunParallelDeterminism(t *testing.T) {
	exp := Experiment{
		Study:    CapitalCholesky(QuickScale()),
		EpsList:  []float64{0.5, 0.125},
		Machine:  quickMachine(),
		Seed:     7,
		Policies: []critter.Policy{critter.Conditional, critter.Online},
		Workers:  1,
	}
	seq, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	exp.Workers = 4
	par, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	seq, par = observable(seq), observable(par)
	if !reflect.DeepEqual(seq, par) {
		for pi := range seq.Sweeps {
			for ei := range seq.Sweeps[pi] {
				if !reflect.DeepEqual(seq.Sweeps[pi][ei], par.Sweeps[pi][ei]) {
					t.Errorf("policy %s eps %g: parallel sweep differs from sequential",
						seq.Policies[pi], seq.EpsList[ei])
				}
			}
		}
		t.Fatal("Workers: 4 result differs from Workers: 1")
	}
}

// TestRunDefaultWorkers checks that the zero value (no Workers field set)
// still runs every sweep and fills the whole result grid in order.
func TestRunDefaultWorkers(t *testing.T) {
	eps := []float64{1, 0.5, 0.25}
	res, err := Experiment{
		Study:   tinyStudy("tiny"),
		EpsList: eps,
		Machine: quickMachine(),
		Seed:    3,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeps) != 1 || len(res.Sweeps[0]) != len(eps) {
		t.Fatalf("sweep grid %dx%d, want 1x%d", len(res.Sweeps), len(res.Sweeps[0]), len(eps))
	}
	for ei, sw := range res.Sweeps[0] {
		if sw.Eps != eps[ei] {
			t.Errorf("slot %d holds eps %g, want %g (ordering broken)", ei, sw.Eps, eps[ei])
		}
		if len(sw.Configs) != 2 {
			t.Errorf("slot %d covered %d configs", ei, len(sw.Configs))
		}
	}
}

// TestEmptyPolicyOverrideFallsBack guards the policy-resolution fallback: a
// non-nil empty Policies override must still yield the four-policy default,
// not a silent zero-sweep no-op.
func TestEmptyPolicyOverrideFallsBack(t *testing.T) {
	st := tinyStudy("tiny")
	st.Policies = nil
	res, err := Experiment{
		Study:    st,
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     1,
		Policies: []critter.Policy{},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 4 || len(res.Sweeps) != 4 {
		t.Fatalf("empty override resolved to %v, want the four-policy default", res.Policies)
	}
}

// TestSuitePropagatesErrors checks that ExperimentSuite reports every
// failing study (tagged with study, policy, and eps) instead of dropping
// errors, while still returning the results of the studies that succeeded.
func TestSuitePropagatesErrors(t *testing.T) {
	mk := func(st Study) Experiment {
		return Experiment{Study: st, EpsList: []float64{0.25}, Machine: quickMachine(), Seed: 2}
	}
	var events []Progress
	suite := ExperimentSuite{
		Experiments: []Experiment{mk(tinyStudy("ok-study")), mk(panicStudy())},
		Workers:     2,
		Progress:    func(ev Progress) { events = append(events, ev) },
	}
	results, err := suite.Run()
	if err == nil {
		t.Fatal("suite dropped the failing study's error")
	}
	for _, want := range []string{"boom-study", "kaboom", "conditional"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("suite error %q does not mention %q", err, want)
		}
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0] == nil || len(results[0].Sweeps) != 1 {
		t.Error("successful study's result was dropped alongside the failure")
	}
	if results[1] != nil {
		t.Error("failed study should yield a nil result")
	}
	// Failed sweeps still count toward progress, so Done reaches Total.
	if len(events) != 2 {
		t.Fatalf("got %d progress events, want 2 (failures must report too)", len(events))
	}
	if last := events[len(events)-1]; last.Done != 2 || last.Total != 2 {
		t.Errorf("final progress %d/%d, want 2/2", last.Done, last.Total)
	}
	failed := 0
	for _, ev := range events {
		if ev.Err != nil {
			failed++
			if ev.Study != "boom-study" {
				t.Errorf("failure reported for %q, want boom-study", ev.Study)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d progress events carried an error, want 1", failed)
	}
}

// TestSuiteSharedProgress checks that a suite reports one completion per
// sweep with suite-wide counts, serialized across workers.
func TestSuiteSharedProgress(t *testing.T) {
	eps := []float64{1, 0.5}
	var events []Progress
	suite := ExperimentSuite{
		Experiments: []Experiment{
			{Study: tinyStudy("a"), EpsList: eps, Machine: quickMachine(), Seed: 1},
			{Study: tinyStudy("b"), EpsList: eps, Machine: quickMachine(), Seed: 1},
		},
		Workers:  4,
		Progress: func(ev Progress) { events = append(events, ev) },
	}
	if _, err := suite.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d progress events, want 4", len(events))
	}
	byStudy := map[string]int{}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 4 {
			t.Errorf("event %d: done %d/%d, want %d/4", i, ev.Done, ev.Total, i+1)
		}
		byStudy[ev.Study]++
	}
	if byStudy["a"] != 2 || byStudy["b"] != 2 {
		t.Errorf("per-study completions %v, want 2 each", byStudy)
	}
}
