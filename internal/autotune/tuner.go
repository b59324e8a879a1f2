package autotune

// The Tuner is the central control flow of the autotuning harness: it
// composes a Study (the space and its runner), a Strategy (which
// configurations to evaluate, at what tolerance), and the concurrent sweep
// executor, under caller-controlled cancellation. Experiment and
// ExperimentSuite (study.go, executor.go) are thin compatibility wrappers
// over it.

import (
	"context"
	"errors"
	"iter"

	"critter/internal/critter"
	"critter/internal/mpi"
	"critter/internal/obs"
	"critter/internal/sim"
	"critter/internal/stats"
)

// Tuner drives sweeps of one study over policies and tolerances, each sweep
// enumerated by a search Strategy, on a bounded worker pool.
type Tuner struct {
	// Study is the tuning problem: configuration space plus runner.
	Study Study
	// EpsList is the grid of target confidence tolerances.
	EpsList []float64
	// Machine is the simulated machine model.
	Machine sim.Machine
	// Seed seeds every sweep's world identically.
	Seed uint64
	// Policies overrides Study.Policies when non-nil.
	Policies []critter.Policy
	// Strategy picks the configurations each sweep evaluates; nil means
	// Exhaustive, which reproduces the paper's protocol bit-for-bit.
	Strategy Strategy

	// Prior warm-starts every sweep's selective profiler from a profile
	// exported by an earlier run (SweepResult.Profile, critter-tune
	// -profile-out): kernels predicted by the prior skip sooner, shrinking
	// the executed-kernel count. The reference (full) executions are never
	// warm-started. Takes precedence over a WarmStart strategy's prior.
	Prior *critter.Profile
	// Extrapolate enables family-model extrapolation (Section VIII's
	// line-fitting extension) in the default estimator of every sweep's
	// selective profiler. This is how warm starts transfer across scales:
	// a prior's fitted families predict kernel sizes never seen before.
	Extrapolate bool
	// NewEstimator, when non-nil, supplies the prediction model for each
	// sweep's selective profiler, overriding the default CI-mean estimator
	// (and Extrapolate). Called once per rank per sweep; every call must
	// return a fresh, independent instance.
	NewEstimator func() critter.Estimator

	// Scheduler selects the world scheduler for every sweep. The zero
	// value (mpi.SchedAuto) picks the single-goroutine discrete-event loop
	// for small worlds and goroutine-per-rank above the threshold; either
	// explicit kind forces that engine. Results are byte-identical under
	// every setting — the scheduler decides execution order, never
	// virtual-time outcomes.
	Scheduler mpi.SchedulerKind

	// Workers bounds how many sweeps are simulated concurrently. Zero (or
	// negative) means runtime.GOMAXPROCS(0); 1 recovers the sequential
	// path. Every worker count yields bit-identical results, because each
	// sweep runs in its own world seeded with Seed.
	Workers int
	// Progress, when non-nil, is invoked after each sweep completes (or is
	// abandoned to cancellation). Invocations are serialized; the callback
	// must not call back into the tuner.
	Progress func(Progress)

	// Tracer, when non-nil, receives span events from every sweep: sweep
	// begin/end, strategy planning rounds, per-configuration spans, and
	// the profiler's kernel-propagation rounds (rank 0 of each world).
	// Events within one sweep arrive in deterministic order; events of
	// concurrently running sweeps interleave. Tracing is observational
	// only — results and envelopes are byte-identical with it on or off —
	// and the nil default costs one branch per potential event.
	Tracer obs.Tracer
}

// strategy resolves the search strategy, defaulting to Exhaustive.
func (t Tuner) strategy() Strategy {
	if t.Strategy == nil {
		return Exhaustive{}
	}
	return t.Strategy
}

// policies resolves the tuner's policy list: the explicit override, else
// the study's own list, else (when the resolved list is empty) the paper's
// four-policy default.
func (t Tuner) policies() []critter.Policy {
	policies := t.Policies
	if policies == nil {
		policies = t.Study.Policies
	}
	if len(policies) == 0 {
		policies = []critter.Policy{critter.Conditional, critter.Local, critter.Online, critter.APriori}
	}
	return policies
}

// build preallocates the result grid and one sweep job per (policy, eps)
// cell, each pointing at its result slot so workers never contend.
func (t Tuner) build(sink *progressSink) (*Result, []sweepJob) {
	policies := t.policies()
	strat := t.strategy()
	res := &Result{
		Study:    t.Study.Name,
		Strategy: strat.Name(),
		Policies: policies,
		EpsList:  t.EpsList,
		Sweeps:   make([][]SweepResult, len(policies)),
	}
	jobs := make([]sweepJob, 0, len(policies)*len(t.EpsList))
	refs := newRefTable()
	for pi, pol := range policies {
		res.Sweeps[pi] = make([]SweepResult, len(t.EpsList))
		for ei, eps := range t.EpsList {
			jobs = append(jobs, sweepJob{
				study:       t.Study,
				strat:       strat,
				pol:         pol,
				eps:         eps,
				machine:     t.Machine,
				seed:        t.Seed,
				prior:       t.Prior,
				extrapolate: t.Extrapolate,
				newEst:      t.NewEstimator,
				tracer:      t.Tracer,
				sched:       t.Scheduler,
				refs:        refs,
				out:         &res.Sweeps[pi][ei],
				sink:        sink,
			})
		}
	}
	sink.grow(len(jobs))
	return res, jobs
}

// Run executes every (policy, eps) sweep of the tuner, each in a fresh
// world seeded with Seed, dispatching them to a pool of Workers goroutines.
// Result ordering is fixed by the policy and tolerance lists, not
// completion order, and the values are identical to a sequential
// (Workers: 1) run.
//
// Cancelling ctx stops the grid promptly: running sweeps abandon their
// world at the next configuration boundary and pending sweeps are skipped.
// The result grid is always returned — failed or cancelled cells are
// zeroed — alongside the joined per-sweep errors; on cancellation the error
// satisfies errors.Is(err, ctx.Err()).
func (t Tuner) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sink := &progressSink{fn: t.Progress}
	res, jobs := t.build(sink)
	err := errors.Join(runJobs(ctx, jobs, t.Workers)...)
	return res, err
}

// Stream runs the tuner like Run but yields each sweep as it completes, in
// completion order, for serving and streaming consumers. The SweepResult's
// Policy and Eps fields identify the grid cell; a failed or skipped sweep
// yields a zeroed result (with Policy and Eps still set) and its error.
// Exactly one (result, error) pair is yielded per grid cell unless the
// consumer breaks early, which cancels the remaining sweeps before the
// iterator returns; no goroutines outlive the loop.
func (t Tuner) Stream(ctx context.Context) iter.Seq2[SweepResult, error] {
	return func(yield func(SweepResult, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		sink := &progressSink{fn: t.Progress}
		_, jobs := t.build(sink)
		type item struct {
			sweep SweepResult
			err   error
		}
		// Buffered to the job count: job completions never block on a
		// consumer that has stopped reading.
		out := make(chan item, len(jobs))
		for i := range jobs {
			jobs[i].emit = func(sw SweepResult, err error) { out <- item{sw, err} }
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			runJobs(ctx, jobs, t.Workers)
		}()
		stopped := false
		for range jobs {
			it := <-out
			if !stopped && !yield(it.sweep, it.err) {
				stopped = true
				cancel() // stop the pool, then drain its completions
			}
		}
		<-done
	}
}

// RunTuners executes several tuners through one shared bounded worker pool
// (workers; 0 or negative means GOMAXPROCS), so a wide study's sweeps
// backfill the pool while a narrow one drains. Per-tuner Workers and
// Progress fields are ignored; progress, when non-nil, receives every sweep
// completion with pool-wide Done/Total counts. Both returned slices are
// aligned with tuners: every result grid is non-nil (failed cells zeroed),
// and errs[i] joins tuner i's per-sweep failures.
func RunTuners(ctx context.Context, tuners []Tuner, workers int, progress func(Progress)) ([]*Result, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sink := &progressSink{fn: progress}
	results := make([]*Result, len(tuners))
	var all []sweepJob
	spans := make([][2]int, len(tuners))
	for i, t := range tuners {
		start := len(all)
		res, jobs := t.build(sink)
		results[i] = res
		all = append(all, jobs...)
		spans[i] = [2]int{start, len(all)}
	}
	jobErrs := runJobs(ctx, all, workers)
	errs := make([]error, len(tuners))
	for i := range tuners {
		errs[i] = errors.Join(jobErrs[spans[i][0]:spans[i][1]]...)
	}
	return results, errs
}

// cancelError carries a context error through the simulated world's abort
// machinery: the first rank to observe cancellation panics with it, the
// world unwinds every other rank, and the sweep's error unwraps to the
// context error (so errors.Is(err, context.Canceled) holds).
type cancelError struct{ err error }

func (c cancelError) Error() string { return "sweep canceled: " + c.err.Error() }
func (c cancelError) Unwrap() error { return c.err }

// runSweep performs one (policy, eps) pass over the configurations the
// strategy selects: per configuration, the full reference execution and
// then the approximated one (the measurement protocol of Section VI-A).
// The reference is computed once per (study, configuration, seed) and
// shared through the tuner's reference table: the sweep world that reaches
// a configuration first runs it, every other reads it. Its noise epoch
// makes it identical, by construction, to a full execution run directly
// before the approximated one. Collective; the returned value is
// meaningful on every rank. Cancellation is checked at every configuration
// boundary and aborts the whole world.
func runSweep(ctx context.Context, c *mpi.Comm, j sweepJob) SweepResult {
	study, pol, eps, strat := j.study, j.pol, j.eps, j.strat
	// The tuner's explicit prior wins; otherwise a WarmStart strategy may
	// carry one. The reference profiler always starts cold: it is the
	// ground truth the selective run is judged against.
	prior := j.prior
	if pp, ok := strat.(priorCarrier); ok && prior == nil {
		prior = pp.Prior()
	}
	opts := critter.Options{
		Policy:      pol,
		Eps:         eps,
		Extrapolate: j.extrapolate,
		Prior:       prior,
		Memo:        j.memo,
	}
	if j.newEst != nil {
		opts.Estimator = j.newEst()
	}
	ref, refComm := newReferenceProfiler(c, j.memo)
	tuned, tunedComm := critter.New(c, opts)
	// Trace from rank 0 only, mirroring the profiler's convention: one
	// deterministic event stream per sweep, not one per rank.
	tr := j.tracer
	if c.Rank() != 0 {
		tr = nil
	}
	sr := SweepResult{Policy: pol, Eps: eps}
	var execErrs, compErrs []float64
	plan := strat.Plan(study.space(), eps)
	// ProfileAware plans receive the live merged profile after every round.
	// The type assertion resolves identically on every rank (all ranks hold
	// the same plan type), so the collective GlobalProfile below is entered
	// by all ranks or none.
	profileAware, _ := plan.(ProfileAware)
	var prev []ConfigResult
	roundNo := 0
	for {
		round, ok := plan.Next(prev)
		if !ok || len(round.Configs) == 0 {
			break
		}
		roundNo++
		if tr != nil {
			tr.Emit(obs.Event{
				Kind: obs.KindStrategy, Phase: obs.PhasePoint,
				Policy: pol.String(), Eps: eps,
				Round: roundNo, Configs: len(round.Configs),
			})
		}
		roundStart := len(sr.Configs)
		for _, v := range round.Configs {
			if ctx.Err() != nil {
				panic(cancelError{ctx.Err()})
			}
			if tr != nil {
				tr.Emit(obs.Event{
					Kind: obs.KindConfig, Phase: obs.PhaseBegin,
					Policy: pol.String(), Eps: eps,
					Config: len(sr.Configs) + 1, Round: roundNo,
				})
			}
			full, ran := j.refs.fetch(ctx, c, j.memo, ref, refComm, study, v)
			if ran {
				sr.ReferencesRun++
			}

			var sel critter.Report
			run := critter.RunKey{Config: critter.ConfigKey(study.Name, v), Role: critter.RoleSelective}
			if pol == critter.APriori && round.Eps > 0 {
				// Offline iteration: full execution under online
				// propagation to obtain critical-path execution counts
				// (and samples).
				tuned.StartConfigKeyed(study.ResetStats, run)
				tuned.SetPolicy(critter.Online)
				tuned.SetEps(0)
				study.Run(tuned, tunedComm, v)
				offline := tuned.Report()
				freqs := tuned.GlobalPathFreqs()
				sr.TuneWall += offline.Wall
				sr.KernelTime += offline.KernelTime
				sr.CompKernelTime += offline.CompKernel
				sr.KernelsMemoized += offline.Memoized
				tuned.SetAprioriFreq(freqs)
				tuned.SetPolicy(critter.APriori)
				tuned.SetEps(round.Eps)
				run.Pass = 1
				tuned.StartConfigKeyed(false, run) // keep the offline pass's samples
				study.Run(tuned, tunedComm, v)
				sel = tuned.Report()
			} else {
				tuned.SetEps(round.Eps)
				tuned.StartConfigKeyed(study.ResetStats, run)
				study.Run(tuned, tunedComm, v)
				sel = tuned.Report()
			}

			cr := ConfigResult{
				Config:    v,
				Eps:       round.Eps,
				Full:      full,
				Selective: sel,
				ExecErr:   stats.RelErr(sel.Predicted, full.Wall),
				CompErr:   stats.RelErr(sel.PredictedComp, full.PredictedComp),
			}
			sr.Configs = append(sr.Configs, cr)
			sr.TuneWall += sel.Wall
			sr.FullWall += full.Wall
			sr.KernelTime += sel.KernelTime
			sr.CompKernelTime += sel.CompKernel
			sr.Executed += sel.Executed
			sr.Skipped += sel.Skipped
			sr.KernelsMemoized += sel.Memoized
			execErrs = append(execErrs, cr.ExecErr)
			compErrs = append(compErrs, cr.CompErr)
			if tr != nil {
				tr.Emit(obs.Event{
					Kind: obs.KindConfig, Phase: obs.PhaseEnd,
					Policy: pol.String(), Eps: eps,
					Config: len(sr.Configs), Round: roundNo,
					Virtual: sel.Wall, FullVirtual: full.Wall,
					Executed: sel.Executed, Skipped: sel.Skipped,
				})
			}
		}
		prev = sr.Configs[roundStart:]
		if profileAware != nil {
			// Collective: every rank gathers and folds the identical merged
			// profile, so plan state advances in lockstep across ranks. Fed
			// after the round's results exist and before the next planning
			// decision, mirroring how prev reaches Next.
			profileAware.ObserveProfile(tuned.GlobalProfile())
		}
	}
	sr.Selected, sr.Optimal = argmins(sr.Configs)
	sr.MeanLogExecErr = stats.MeanLogErr(execErrs)
	sr.MeanLogCompErr = stats.MeanLogErr(compErrs)
	// Export what the sweep learned, pooled across ranks (collective).
	// The archive inside the profiler spans every configuration, so
	// studies that reset statistics between configurations still yield
	// their full union.
	sr.Profile = tuned.GlobalProfileRoot(0)
	// The sweep is done with its profilers: donate their dense arenas and
	// estimator slabs back to the worker's memo for the next sweep.
	ref.Retire()
	tuned.Retire()
	return sr
}

// argmins picks the sweep's Selected (minimal predicted time) and Optimal
// (minimal full time) configurations. When a rung strategy evaluates a
// configuration more than once, only its last — most refined — evaluation
// competes, so a pruned configuration's stale loose-tolerance prediction
// cannot outrank a survivor's target-tolerance one. Under a single-round
// strategy every evaluation is the last, reproducing the original
// first-minimum scan exactly.
func argmins(configs []ConfigResult) (selected, optimal int) {
	last := make(map[int]int, len(configs))
	for i, cr := range configs {
		last[cr.Config] = i
	}
	bestPred, bestFull := -1.0, -1.0
	for i, cr := range configs {
		if last[cr.Config] != i {
			continue
		}
		if bestPred < 0 || cr.Selective.Predicted < bestPred {
			bestPred = cr.Selective.Predicted
			selected = cr.Config
		}
		if bestFull < 0 || cr.Full.Wall < bestFull {
			bestFull = cr.Full.Wall
			optimal = cr.Config
		}
	}
	return selected, optimal
}

// ResultSchemaVersion identifies the JSON layout emitted by critter-tune
// -json (an Envelope). Version 1 was the bare Result grid; version 2 added
// the self-describing envelope; version 3 added per-sweep profile
// summaries (and the optional prior summary).
const ResultSchemaVersion = 3

// ProfileSummary condenses one sweep's exported kernel profile for the
// envelope: enough to see how much a run learned (and compare warm against
// cold runs) without embedding the full artifact, which critter-tune
// -profile-out persists separately.
type ProfileSummary struct {
	// Policy identifies the sweep the profile came from; empty for
	// summaries not tied to one sweep (a -profile-in prior), whose Eps is
	// then meaningless. Eps is always emitted: 0 is a legitimate sweep
	// tolerance (selective execution disabled).
	Policy       string  `json:"policy,omitempty"`
	Eps          float64 `json:"eps"`
	Estimator    string  `json:"estimator,omitempty"`
	Kernels      int     `json:"kernels"`
	Samples      int64   `json:"samples"`
	Families     int     `json:"families"`
	FamilyPoints int     `json:"familyPoints"`
	PathKeys     int     `json:"pathKeys"`
}

// Summarize condenses a profile for an envelope. pol and eps identify the
// sweep and are supplied by the caller; empty/zero mean "not tied to one
// sweep" (the prior summary).
func Summarize(pol string, eps float64, p *critter.Profile) ProfileSummary {
	s := ProfileSummary{Policy: pol, Eps: eps}
	if p == nil {
		return s
	}
	s.Estimator = p.Estimator
	s.Kernels = len(p.Kernels)
	s.Samples = p.Samples()
	s.Families = len(p.Families)
	s.FamilyPoints = p.FamilyPointCount()
	s.PathKeys = len(p.PathFreqs)
	return s
}

// ProfileSummaries condenses every sweep profile of a result grid, in grid
// order (policy-major), skipping sweeps that exported nothing (failed or
// cancelled cells).
func ProfileSummaries(res *Result) []ProfileSummary {
	if res == nil {
		return nil
	}
	var out []ProfileSummary
	for pi, pol := range res.Policies {
		for ei, eps := range res.EpsList {
			if sw := res.Sweeps[pi][ei]; sw.Profile != nil {
				out = append(out, Summarize(pol.String(), eps, sw.Profile))
			}
		}
	}
	return out
}

// MergedProfile merges every sweep's exported profile of a result grid into
// one artifact — the run's total learned state, suitable for -profile-out
// and later warm starts. Returns nil when no sweep exported anything.
func MergedProfile(res *Result) *critter.Profile {
	if res == nil {
		return nil
	}
	var merged *critter.Profile
	for pi := range res.Sweeps {
		for ei := range res.Sweeps[pi] {
			if p := res.Sweeps[pi][ei].Profile; p != nil {
				merged = critter.MergeProfiles(merged, p)
			}
		}
	}
	return merged
}

// Envelope is the self-describing serialization of one tuning run: the
// schema version plus every input needed to reproduce or compare the run
// (seed, scale, noise sigma, search strategy) around the result grid, and
// summaries of the kernel profiles the run imported and exported.
type Envelope struct {
	SchemaVersion int     `json:"schemaVersion"`
	Study         string  `json:"study"`
	Scale         string  `json:"scale"`
	Seed          uint64  `json:"seed"`
	NoiseSigma    float64 `json:"noiseSigma"`
	Strategy      string  `json:"strategy"`
	// Prior summarizes the warm-start profile the run was seeded with
	// (-profile-in), nil for cold runs.
	Prior *ProfileSummary `json:"prior,omitempty"`
	// Profiles summarizes each sweep's exported profile in grid order.
	Profiles []ProfileSummary `json:"profiles,omitempty"`
	Result   *Result          `json:"result"`
}
