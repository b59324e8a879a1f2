package main

// The tune-* workloads: whole tuning grids through autotune.Tuner.Run with
// the Exhaustive strategy, the path of critter-tune and the figures.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"critter/internal/autotune"
	"critter/internal/sim"
)

// gridSeeds is how many distinct grid inputs a tune run cycles through.
// The paper-outcome metrics average over them, so that they describe the
// study rather than one draw of machine noise.
const gridSeeds = 8

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 11

// goldenDir holds the committed golden result grids, read at run time.
const goldenDir = "internal/autotune/testdata"

type tuneSpec struct {
	study     string
	scaleName string
	eps       []float64
	// golden names the golden grid whose cells a seed-42 run must match,
	// or "" when no golden grid covers the workload's scale.
	golden string
}

func runTuneCandmc(r run) (*result, error) {
	return runTune(r, tuneSpec{
		study: "candmc", scaleName: "quick",
		eps:    []float64{1, 0.5, 0.25, 0.125, 0.0625},
		golden: "envelope_candmc_exhaustive.golden.json",
	})
}

func runTuneSlateChol(r run) (*result, error) {
	return runTune(r, tuneSpec{
		study: "slate-chol", scaleName: "default",
		eps: []float64{0.5, 0.25, 0.125},
	})
}

// grid is one timed Tuner.Run.
type grid struct {
	k        int // index into the run's grid seeds
	seconds  float64
	encodeMs float64
	sweeps   int
	failed   int
}

// tuneRun holds one tune run's inputs and the state its windows share.
// It keeps only digests and outcome terms of past grids, so the heap the
// measured grids run in does not grow with the number of grids run.
type tuneRun struct {
	spec    tuneSpec
	study   autotune.Study
	machine sim.Machine
	seeds   []uint64
	workers int
	// digest holds the envelope digest of each grid seed's first run;
	// every later run of that seed must reproduce it.
	digest [gridSeeds]*[sha256.Size]byte
	// outcomes holds each grid seed's sweep outcome terms.
	outcomes [gridSeeds][]sweepOutcome
	checks   checks
}

func runTune(r run, spec tuneSpec) (*result, error) {
	t := &tuneRun{spec: spec, machine: sim.DefaultMachine(), workers: runtime.NumCPU()}
	for k := range gridSeeds {
		t.seeds = append(t.seeds, r.seed)
		if k > 0 {
			t.seeds[k] = mix(r.seed, uint64(k))
		}
	}

	// Set-up: build the study and warm up with one sweep, setupReps times.
	var setups []float64
	for range setupReps {
		start := time.Now()
		scale, err := autotune.ParseScale(spec.scaleName)
		if err != nil {
			return nil, err
		}
		st, err := autotune.ParseStudy(spec.study, scale)
		if err != nil {
			return nil, err
		}
		warm := autotune.Tuner{
			Study: st, EpsList: spec.eps[:1], Policies: st.Policies[:1],
			Machine: t.machine, Seed: r.seed, Workers: t.workers,
		}
		if _, err := warm.Run(context.Background()); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		t.study = st
		setups = append(setups, time.Since(start).Seconds())
	}

	res := &result{Metrics: map[string]metric{}}
	m := res.Metrics
	if !r.trace {
		heap := startHeapPeak(0)
		start := time.Now()
		grids := t.window(r.seconds, gridSeeds, nil, heap)
		elapsed := time.Since(start).Seconds()
		peak := heap.stop()
		times := gridTimes(grids)
		out := outcome(slices.Concat(t.outcomes[:]...))
		m["setup_s"] = metric{quantile(setups, 0.5), "s"}
		m["grid_s"] = metric{quantile(times, 0.5), "s"}
		m["virtual_speedup"] = metric{out.speedup, "x"}
		m["prediction_error_pct"] = metric{out.errPct, "%"}
		m["peak_heap_mb"] = metric{peak, "MB"}
		m["job_p50_ms"] = metric{1000 * quantile(times, 0.5), "ms"}
		m["job_p95_ms"] = metric{1000 * quantile(times, 0.95), "ms"}
		m["jobs_per_s"] = metric{float64(len(grids)) / elapsed, "1/s"}
		res.Attempted, res.Failed = tally(grids)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d grids in %.1fs (%d sweeps each, %d workers); seconds by grid seed:",
			r.workload, len(grids), elapsed, grids[0].sweeps, t.workers)
		for _, g := range grids {
			fmt.Fprintf(os.Stderr, " %d:%.3f", g.k, g.seconds)
		}
		fmt.Fprintln(os.Stderr)
	} else {
		// Untraced grids first, one per grid seed: the baseline for the
		// tracing overhead and the allocation counts. Then traced grids of
		// the same seeds for the rest of the time, at least two.
		mem := readMem()
		plain := t.window(0, gridSeeds, nil, nil)
		md := memSince(mem)

		rec := newRecorder()
		tr := newSweepTracer(rec)
		timer := &studyTimer{rec: rec}
		t.study = timer.wrap(t.study)
		timer.on.Store(true)
		traced := t.window(r.seconds/2, 2, &tracing{rec: rec, sweeps: tr, study: timer}, nil)
		timer.on.Store(false)

		fullMs, selMs, refShare := studyShares(rec)
		sweepMs := rec.durations("autotune.sweep")
		out := outcome(slices.Concat(t.outcomes[:]...))
		all := slices.Concat(plain, traced)
		var encode []float64
		for _, g := range all {
			encode = append(encode, g.encodeMs)
		}
		// Paired by grid seed: traced over untraced time of the same grid.
		var slowdown []float64
		for _, g := range traced {
			slowdown = append(slowdown, g.seconds/plain[g.k].seconds)
		}
		m["autotune.sweep_ms_p50"] = metric{quantile(sweepMs, 0.5), "ms"}
		m["autotune.sweep_ms_p90"] = metric{quantile(sweepMs, 0.9), "ms"}
		m["autotune.pool_busy"] = metric{ratio(sum(sweepMs), float64(t.workers)*1000*sum(gridTimes(traced))), "ratio"}
		m["autotune.ref_share"] = metric{refShare, "ratio"}
		m["autotune.encode_ms"] = metric{quantile(encode, 0.5), "ms"}
		m["study.full_ms"] = metric{fullMs, "ms"}
		m["study.selective_ms"] = metric{selMs, "ms"}
		m["critter.host_speedup"] = metric{ratio(fullMs, selMs), "x"}
		m["critter.skip_ratio"] = metric{out.skipRatio, "ratio"}
		m["critter.memo_ratio"] = metric{out.memoRatio, "ratio"}
		m["critter.rounds_per_config"] = metric{ratio(float64(tr.rounds.Load()), float64(tr.configs.Load())), "count"}
		m["obs.trace_overhead_pct"] = metric{100 * (quantile(slowdown, 0.5) - 1), "%"}
		m["runtime.alloc_mb"] = metric{float64(md.allocBytes) / (1 << 20) / float64(len(plain)), "MB"}
		m["runtime.gc_cycles"] = metric{float64(md.gcCycles) / float64(len(plain)), "count"}
		m["selection_gap_pct"] = metric{out.gapPct, "%"}
		// The service and store layers are not on this workload's path.
		for _, name := range serviceLayerMetrics {
			m[name.name] = metric{0, name.unit}
		}
		if err := layerProbes(m, r.seed); err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = tally(all)
		m["error_rate"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio"}
		if err := rec.finish(r.workload, r.seed); err != nil {
			return nil, err
		}
	}
	res.Correct = t.checks.ok()
	return res, nil
}

// tracing is what a traced window records into.
type tracing struct {
	rec    *recorder
	sweeps *sweepTracer
	study  *studyTimer
}

// window runs grids, cycling through the grid seeds, until seconds have
// passed and at least minGrids have run. A non-nil heap gets one segment
// per grid.
func (t *tuneRun) window(seconds float64, minGrids int, tr *tracing, heap *heapPeak) []grid {
	var grids []grid
	start := time.Now()
	for i := 0; i < minGrids || time.Since(start).Seconds() < seconds; i++ {
		grids = append(grids, t.runGrid(i, i%gridSeeds, tr))
		if heap != nil {
			heap.cut()
		}
	}
	return grids
}

// runGrid runs and checks one grid.
func (t *tuneRun) runGrid(i, k int, tr *tracing) grid {
	tuner := autotune.Tuner{
		Study: t.study, EpsList: t.spec.eps, Machine: t.machine,
		Seed: t.seeds[k], Workers: t.workers, Strategy: autotune.Exhaustive{},
	}
	failed := 0
	tuner.Progress = func(p autotune.Progress) { // calls are serialized
		if p.Err != nil {
			failed++
		}
	}
	key := fmt.Sprintf("grid-%d", i)
	var gridID int64
	if tr != nil {
		tuner.Tracer = tr.sweeps
		gridID = tr.rec.next.Add(1) // reserved: the grid span is recorded after its children
		tr.sweeps.grid.Store(gridID)
		tr.sweeps.key.Store(key)
		tr.study.parent.Store(gridID)
		tr.study.key.Store(key)
	}
	start := time.Now()
	res, err := tuner.Run(context.Background())
	end := time.Now()
	g := grid{k: k, seconds: end.Sub(start).Seconds(), failed: failed}
	if err != nil {
		g.failed = max(failed, 1)
		t.checks.failf("grid %d (seed %d): %v", i, t.seeds[k], err)
	}
	env := autotune.Envelope{
		SchemaVersion: autotune.ResultSchemaVersion,
		Study:         t.study.Name,
		Scale:         t.spec.scaleName,
		Seed:          t.seeds[k],
		NoiseSigma:    t.machine.NoiseSigma,
		Strategy:      tuner.Strategy.Name(),
		Profiles:      autotune.ProfileSummaries(res),
		Result:        res,
	}
	encStart := time.Now()
	data, mErr := json.Marshal(env)
	encEnd := time.Now()
	g.encodeMs = float64(encEnd.Sub(encStart).Nanoseconds()) / 1e6
	if tr != nil {
		tr.rec.add("autotune.encode", key, gridID, encStart, encEnd)
		tr.rec.addWithID(gridID, "autotune.grid", key, 0, start, end)
	}
	if mErr != nil {
		t.checks.failf("grid %d: encode envelope: %v", i, mErr)
		return g
	}
	if _, err := autotune.DecodeEnvelope(data); err != nil {
		t.checks.failf("grid %d: %v", i, err)
	}
	var sweeps []autotune.SweepResult
	for _, row := range res.Sweeps {
		sweeps = append(sweeps, row...)
	}
	g.sweeps = len(sweeps)
	digest := sha256.Sum256(data)
	switch {
	case t.digest[k] == nil:
		t.digest[k] = &digest
		for _, sw := range sweeps {
			t.outcomes[k] = append(t.outcomes[k], outcomeOf(sw))
		}
		if t.seeds[k] == 42 && t.spec.golden != "" {
			t.checkGolden(sweeps)
		}
	case *t.digest[k] != digest:
		t.checks.failf("grid %d (seed %d, traced %v): envelope differs from the first run of that seed", i, t.seeds[k], tr != nil)
	}
	return g
}

// checkGolden compares the seed-42 grid with every cell the golden grid
// pins: same policy and eps, byte-identical sweep result.
func (t *tuneRun) checkGolden(sweeps []autotune.SweepResult) {
	golden, err := goldenCells(t.spec.golden)
	if err != nil {
		t.checks.failf("%v", err)
		return
	}
	cells := 0
	for _, sw := range sweeps {
		want, ok := golden[cellKey(sw)]
		if !ok {
			continue
		}
		cells++
		if got, _ := json.Marshal(sw); !bytes.Equal(got, want) {
			t.checks.failf("golden cell %s of %s differs", cellKey(sw), t.spec.golden)
		}
	}
	if cells == 0 {
		t.checks.failf("golden grid %s shares no cell with the workload's grid", t.spec.golden)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d golden cells of %s checked\n", cells, t.spec.golden)
}

// goldenCells reads a golden result grid and returns each cell's sweep
// result, re-encoded, by cellKey.
func goldenCells(name string) (map[string][]byte, error) {
	data, err := os.ReadFile(goldenDir + "/" + name)
	if err != nil {
		return nil, fmt.Errorf("read golden grid: %w", err)
	}
	var golden autotune.Result
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("decode golden grid %s: %w", name, err)
	}
	cells := make(map[string][]byte)
	for _, row := range golden.Sweeps {
		for _, sw := range row {
			b, err := json.Marshal(sw)
			if err != nil {
				return nil, err
			}
			cells[cellKey(sw)] = b
		}
	}
	return cells, nil
}

// cellKey names a sweep's grid cell.
func cellKey(sw autotune.SweepResult) string { return cellName(sw.Policy.String(), sw.Eps) }

// cellName names the grid cell of a policy and tolerance.
func cellName(policy string, eps float64) string { return fmt.Sprintf("%s/%g", policy, eps) }

func gridTimes(grids []grid) []float64 {
	var out []float64
	for _, g := range grids {
		out = append(out, g.seconds)
	}
	return out
}

// tally counts attempted and failed sweeps.
func tally(grids []grid) (attempted, failed int) {
	for _, g := range grids {
		attempted += max(g.sweeps, 1)
		failed += g.failed
	}
	return attempted, failed
}

// sweepOutcome is what the paper's outcome measures need from one sweep.
type sweepOutcome struct {
	full, tune, logErr, gapPct float64
	executed, skipped, memo    int64
}

// outcomeOf extracts a sweep's outcome terms. The selection gap compares
// the reference times of the last evaluations of the selected and the
// optimal configuration.
func outcomeOf(sw autotune.SweepResult) sweepOutcome {
	lastFull := func(v int) float64 {
		t := 0.0
		for _, c := range sw.Configs {
			if c.Config == v {
				t = c.Full.Wall
			}
		}
		return t
	}
	return sweepOutcome{
		full: sw.FullWall, tune: sw.TuneWall, logErr: sw.MeanLogExecErr,
		gapPct:   100 * (ratio(lastFull(sw.Selected), lastFull(sw.Optimal)) - 1),
		executed: sw.Executed, skipped: sw.Skipped, memo: sw.KernelsMemoized,
	}
}

// outcomes are the paper's outcome measures over a set of sweeps.
type outcomes struct {
	speedup, errPct, gapPct float64
	skipRatio, memoRatio    float64
}

// outcome computes the paper's measures: the virtual tuning speed-up
// ΣFullWall/ΣTuneWall, the geometric-mean prediction error, the mean
// selection gap, and the kernel skip and memo ratios.
func outcome(sweeps []sweepOutcome) outcomes {
	var full, tune, logErr, gap float64
	var executed, skipped, memo int64
	for _, sw := range sweeps {
		full += sw.full
		tune += sw.tune
		logErr += sw.logErr
		gap += sw.gapPct
		executed += sw.executed
		skipped += sw.skipped
		memo += sw.memo
	}
	n := float64(len(sweeps))
	return outcomes{
		speedup:   ratio(full, tune),
		errPct:    100 * math.Pow(2, ratio(logErr, n)),
		gapPct:    ratio(gap, n),
		skipRatio: ratio(float64(skipped), float64(executed+skipped)),
		memoRatio: ratio(float64(memo), float64(skipped)),
	}
}
