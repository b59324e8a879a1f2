package autotune_test

// Reference invariance: a configuration's reference (Full) report is its
// ground truth, so it may depend only on (study, configuration, machine,
// seed) — never on which strategy visited the configuration, in what
// order, on how many workers, or under which world scheduler. And since
// it cannot differ, each Run computes it exactly once and shares it.

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	. "critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/mpi"
)

// TestReferenceInvariance runs every built-in study at quick scale under
// each strategy, at one and four workers, under both pinned schedulers,
// and requires every evaluated configuration's Full report to be
// byte-identical to FullOnly's report of that configuration.
func TestReferenceInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("reference invariance runs full sweeps")
	}
	for _, name := range []string{"capital", "slate-chol", "candmc", "slate-qr"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			st, err := ParseStudy(name, QuickScale())
			if err != nil {
				t.Fatal(err)
			}
			truth, err := FullOnly(context.Background(), st, goldenMachine(), 42, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]byte, len(truth))
			for v, rep := range truth {
				want[v] = mustJSON(t, rep)
			}
			for _, spec := range []string{"exhaustive", "random:6", "halving", "surrogate:6"} {
				strat, err := ParseStrategy(spec, 42)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					for _, sched := range []mpi.SchedulerKind{mpi.SchedGoroutine, mpi.SchedEvent} {
						res, err := Tuner{
							Study:     st,
							EpsList:   []float64{0.125},
							Machine:   goldenMachine(),
							Seed:      42,
							Policies:  []critter.Policy{critter.Online, critter.APriori},
							Strategy:  strat,
							Workers:   workers,
							Scheduler: sched,
						}.Run(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						where := fmt.Sprintf("%s/workers=%d/%s", spec, workers, sched)
						for _, row := range res.Sweeps {
							for _, sw := range row {
								for _, cr := range sw.Configs {
									if got := mustJSON(t, cr.Full); string(got) != string(want[cr.Config]) {
										t.Errorf("%s: %s eps %g: config %d reference differs from FullOnly:\n got %s\nwant %s",
											where, sw.Policy, sw.Eps, cr.Config, got, want[cr.Config])
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestReferencesRunOncePerConfig checks the shared reference table: summed
// over a Run (and over a Stream), ReferencesRun equals the number of
// distinct configurations evaluated, at any worker count — each
// configuration's reference ran exactly once.
func TestReferencesRunOncePerConfig(t *testing.T) {
	st, err := ParseStudy("candmc", QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"exhaustive", "halving", "random:5"} {
		strat, err := ParseStrategy(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			tn := Tuner{
				Study:    st,
				EpsList:  []float64{0.5, 0.125},
				Machine:  goldenMachine(),
				Seed:     7,
				Policies: []critter.Policy{critter.Conditional, critter.APriori},
				Strategy: strat,
				Workers:  workers,
			}
			count := func(sweeps []SweepResult) (ran int64, distinct int) {
				seen := map[int]bool{}
				for _, sw := range sweeps {
					ran += sw.ReferencesRun
					for _, cr := range sw.Configs {
						seen[cr.Config] = true
					}
				}
				return ran, len(seen)
			}
			res, err := tn.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var sweeps []SweepResult
			for _, row := range res.Sweeps {
				sweeps = append(sweeps, row...)
			}
			if ran, distinct := count(sweeps); ran != int64(distinct) {
				t.Errorf("%s workers=%d: Run computed %d references for %d distinct configurations", spec, workers, ran, distinct)
			}
			sweeps = sweeps[:0]
			for sw, err := range tn.Stream(context.Background()) {
				if err != nil {
					t.Fatal(err)
				}
				sweeps = append(sweeps, sw)
			}
			if ran, distinct := count(sweeps); ran != int64(distinct) {
				t.Errorf("%s workers=%d: Stream computed %d references for %d distinct configurations", spec, workers, ran, distinct)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
