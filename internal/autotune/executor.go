package autotune

// The concurrent sweep executor. Every (study, policy, eps) sweep is
// independent given its own deterministic world seeded identically, so the
// full evaluation grid — within one Tuner or across several — is dispatched
// to a bounded pool of worker goroutines. Each job writes into a
// preallocated result slot, and the only state a tuner's sweeps share, its
// reference table, holds reports that do not depend on which sweep
// computed them, making results bit-identical to the sequential path
// regardless of worker count or completion order. Cancellation is
// cooperative: workers skip pending jobs once the context is done, and a
// running sweep aborts its world at the next configuration boundary.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"critter/internal/critter"
	"critter/internal/mpi"
	"critter/internal/obs"
	"critter/internal/sim"
)

// Progress describes one completed sweep — successful, failed, or skipped
// on cancellation — for shared progress reporting across concurrently
// running tuners. Done always reaches Total, so consumers may treat
// Done == Total as end-of-run.
type Progress struct {
	Study  string
	Policy critter.Policy
	Eps    float64
	Done   int   // sweeps completed so far under this reporter
	Total  int   // total sweeps scheduled under this reporter
	Err    error // non-nil when this sweep failed or was cancelled
}

// progressSink serializes completion callbacks from concurrent workers and
// tracks the done/total counts. A nil callback disables reporting; the
// counters still advance so Total is meaningful if jobs are added later.
type progressSink struct {
	mu    sync.Mutex
	fn    func(Progress)
	done  int
	total int
}

// grow registers n more scheduled sweeps. Called while building jobs,
// before any worker runs.
func (ps *progressSink) grow(n int) { ps.total += n }

// report records one completed sweep and invokes the callback, serialized.
func (ps *progressSink) report(study string, pol critter.Policy, eps float64, err error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.done++
	if ps.fn != nil {
		ps.fn(Progress{Study: study, Policy: pol, Eps: eps, Done: ps.done, Total: ps.total, Err: err})
	}
}

// scratch is the reusable per-worker arena threaded through the executor:
// every world a worker creates shares one data-plane buffer pool, so
// consecutive sweeps (and configurations within them) recycle each other's
// message payload buffers instead of reallocating the same tile-sized
// slices thousands of times, and one kernel memo, so consecutive sweeps of
// the same study skip re-interning each configuration's kernel signatures
// and recycle retired profiler arenas (see critter.KernelMemo). A scratch
// belongs to exactly one worker goroutine at a time; the pool and memo it
// hands to worlds are themselves concurrency safe (the world's ranks share
// them).
type scratch struct {
	bufs *mpi.BufPool
	memo *critter.KernelMemo
}

// newScratch builds one worker's arena. Each worker owns its pool and memo
// outright: no cross-worker contention, and the memory dies with the run
// instead of pinning the largest study's buffers for the process lifetime.
func newScratch() *scratch {
	return &scratch{bufs: mpi.NewBufPool(), memo: critter.NewKernelMemo()}
}

// world creates a sweep world wired to this worker's arena.
func (s *scratch) world(size int, machine sim.Machine, seed uint64) *mpi.World {
	w := mpi.NewWorld(size, machine, seed)
	if s != nil {
		w.SetBufPool(s.bufs)
	}
	return w
}

// sweepJob is one (study, policy, eps) cell of the evaluation grid. It owns
// its result slot exclusively, so workers share no mutable state beyond the
// progress sink and the tuner's reference table.
type sweepJob struct {
	study   Study
	strat   Strategy
	pol     critter.Policy
	eps     float64
	machine sim.Machine
	seed    uint64
	// prior warm-starts the selective profiler; extrapolate and newEst
	// configure its estimator (see the matching Tuner fields).
	prior       *critter.Profile
	extrapolate bool
	newEst      func() critter.Estimator
	// tracer receives the sweep's span events (see Tuner.Tracer); nil
	// disables tracing for this job at the cost of one branch.
	tracer obs.Tracer
	// sched selects the world scheduler (see Tuner.Scheduler); the zero
	// value lets the world auto-select by size.
	sched mpi.SchedulerKind
	// memo is the worker's cross-config kernel memoization cache,
	// installed by run from the worker's scratch arena. Nil disables
	// memoization (results are byte-identical either way).
	memo *critter.KernelMemo
	// refs is the reference table shared by every sweep of the job's
	// tuner (see refTable).
	refs *refTable
	out  *SweepResult
	sink *progressSink
	// emit, when non-nil, receives the finished sweep (or a zeroed one
	// tagged with the cell's policy and eps on failure) for streaming
	// consumers. Called exactly once per job, after the slot is final.
	emit func(SweepResult, error)
}

// run simulates the sweep in a fresh world — wired to the worker's arena —
// and stores rank 0's view. A done context skips the simulation entirely;
// failure or cancellation zeroes the slot. With a tracer installed the
// sweep is bracketed by begin/end span events, the end event carrying the
// sweep's virtual totals and the process heap growth observed across the
// span (approximate under concurrent sweeps — TotalAlloc is
// process-global).
func (j sweepJob) run(ctx context.Context, sc *scratch) error {
	var allocStart uint64
	if j.tracer != nil {
		j.tracer.Emit(obs.Event{
			Kind: obs.KindSweep, Phase: obs.PhaseBegin,
			Policy: j.pol.String(), Eps: j.eps,
		})
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocStart = ms.TotalAlloc
	}
	var err error
	if err = ctx.Err(); err == nil {
		j.memo = sc.memo
		w := sc.world(j.study.WorldSize, j.machine, j.seed)
		w.SetScheduler(j.sched)
		w.SetTracer(j.tracer)
		err = w.Run(func(c *mpi.Comm) {
			sr := runSweep(ctx, c, j)
			if c.Rank() == 0 {
				*j.out = sr
			}
		})
	}
	if err != nil {
		*j.out = SweepResult{}
		err = fmt.Errorf("autotune: %s: policy %s eps %g: %w", j.study.Name, j.pol, j.eps, err)
	}
	if j.tracer != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		ev := obs.Event{
			Kind: obs.KindSweep, Phase: obs.PhaseEnd,
			Policy: j.pol.String(), Eps: j.eps,
			Virtual: j.out.TuneWall, FullVirtual: j.out.FullWall,
			Executed: j.out.Executed, Skipped: j.out.Skipped,
			Memoized:   j.out.KernelsMemoized,
			AllocBytes: ms.TotalAlloc - allocStart,
		}
		if err != nil {
			ev.Error = err.Error()
		}
		j.tracer.Emit(ev)
	}
	j.sink.report(j.study.Name, j.pol, j.eps, err)
	if j.emit != nil {
		sw := *j.out
		if err != nil {
			sw.Policy, sw.Eps = j.pol, j.eps
		}
		j.emit(sw, err)
	}
	return err
}

// forEachBounded runs fn(i, worker) for every i in [0, n) on at most
// workers goroutines (0 or negative means runtime.GOMAXPROCS(0); 1 recovers
// the sequential path). worker identifies the executing pool slot, so
// callers can thread one scratch arena per worker. The index channel is
// buffered to n, so feeding it never blocks a worker. It is the one pool
// implementation shared by the sweep executor and the full-only pass.
func forEachBounded(n, workers int, fn func(i, worker int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				fn(i, worker)
			}
		}(w)
	}
	wg.Wait()
}

// runJobs executes jobs on at most workers goroutines — each carrying its
// own scratch arena — and returns the per-job errors in job order, nil
// entries for successes. A failed sweep never blocks the others.
func runJobs(ctx context.Context, jobs []sweepJob, workers int) []error {
	errs := make([]error, len(jobs))
	var scratches sync.Map // worker -> *scratch, created lazily per pool slot
	forEachBounded(len(jobs), workers, func(i, worker int) {
		sc, ok := scratches.Load(worker)
		if !ok {
			sc, _ = scratches.LoadOrStore(worker, newScratch())
		}
		errs[i] = jobs[i].run(ctx, sc.(*scratch))
	})
	return errs
}

// ExperimentSuite runs several experiments — typically the four case
// studies of the paper's evaluation — through one shared bounded worker
// pool, so a wide study's sweeps backfill the pool while a narrow one
// drains. It is a compatibility wrapper over RunTuners.
type ExperimentSuite struct {
	Experiments []Experiment

	// Workers bounds the pool shared by every experiment; zero (or
	// negative) means runtime.GOMAXPROCS(0). Per-experiment Workers
	// fields are ignored.
	Workers int
	// Progress, when non-nil, receives every sweep completion across the
	// whole suite with suite-wide Done/Total counts. Invocations are
	// serialized. Per-experiment Progress callbacks are ignored, like
	// Workers.
	Progress func(Progress)
}

// Run executes every sweep of every experiment. The returned slice is
// aligned with Experiments; an experiment whose sweeps all succeed gets its
// *Result, one with any failed sweep gets nil. The error joins every
// per-study failure (each tagged with study, policy, and eps) rather than
// dropping them, and is nil only if all studies succeed.
func (s ExperimentSuite) Run() ([]*Result, error) {
	tuners := make([]Tuner, len(s.Experiments))
	for i, e := range s.Experiments {
		tuners[i] = e.Tuner()
	}
	results, errs := RunTuners(context.Background(), tuners, s.Workers, s.Progress)
	var failures []error
	for i, err := range errs {
		if err != nil {
			results[i] = nil
			failures = append(failures, err)
		}
	}
	return results, errors.Join(failures...)
}
