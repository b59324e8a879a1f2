// Package mpi implements a deterministic, in-process message-passing runtime
// with MPI-like semantics and virtual time. It is the substrate on which the
// Critter profiler and the distributed factorization libraries run.
//
// Ranks execute as goroutines. Each rank owns a virtual clock (package sim);
// point-to-point messages and collectives advance clocks according to an
// alpha-beta-gamma machine model with deterministic per-rank noise, so a
// fixed seed reproduces identical virtual timings regardless of goroutine
// scheduling.
//
// The interface mirrors the MPI subset used by the paper's four case-study
// libraries: blocking and nonblocking point-to-point (Send, Recv, Sendrecv,
// Isend, Irecv, Wait), the collectives Bcast, Reduce, Allreduce, Allgather,
// Gather, Scatter, Barrier, and communicator construction via Split and Dup.
// Payloads are []float64 (application data) or typed values via the generic
// message core (SendMsg and friends, used by the profiler's internal
// piggyback messages); the *Any variants remain as thin untyped wrappers.
//
// All traffic runs on sharded typed fabrics (fabric.go): one mailbox lock
// per destination rank and a fixed set of collective-round shards per
// payload type, with no world-global lock on any communication path.
package mpi

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"critter/internal/obs"
	"critter/internal/sim"
)

// ErrAborted is the panic value raised in every rank when some rank panics,
// so a single failure cannot deadlock the remaining ranks.
var ErrAborted = fmt.Errorf("mpi: world aborted due to failure on another rank")

// World is a set of P ranks sharing a machine model and a message fabric
// per payload type. Create one with NewWorld and run an SPMD program with
// Run.
type World struct {
	size    int
	machine sim.Machine
	seed    uint64

	ranks []*rankState

	// fabrics maps a payload type (reflect.Type) to its *fabric[T]; the
	// data plane lives at T = []float64 and is cached in dataFab.
	// fabricMu serializes fabric creation (lookups are lock-free).
	fabrics  sync.Map
	fabricMu sync.Mutex
	dataFab  *fabric[[]float64]

	// bufs, when non-nil, recycles data-plane payload buffers across
	// messages (and, via the sweep executor's per-worker scratch, across
	// the worlds a worker runs). See BufPool.
	bufs *BufPool

	// trace, when non-nil, receives span events from the layers running
	// on this world (the profiler's propagation rounds). See SetTracer.
	trace obs.Tracer

	// Abort machinery: aborted flips once, abortE records the first
	// failure, and wakers lists every condition variable a rank may block
	// on so abort can wake the whole world.
	aborted atomic.Bool
	abortMu sync.Mutex
	abortE  any
	wakers  []waker

	// Scheduler selection: schedKind is what the caller asked for
	// (SetScheduler, default SchedAuto); des is non-nil iff Run resolved
	// to the event scheduler (see sched.go).
	schedKind SchedulerKind
	des       *desSched
}

// waker pairs a condition variable with the lock its waiters hold, so abort
// can broadcast without losing a wakeup.
type waker struct {
	mu   *sync.Mutex
	cond *sync.Cond
}

// rankState is the per-rank private state, confined to the rank's
// goroutine.
type rankState struct {
	worldRank int
	clock     sim.Clock
	rng       *sim.RNG
	// epoch keys the collective noise of the current noise epoch (the same
	// value on every rank); epochGen counts the epochs this rank has begun,
	// so communicators can tell lazily that a new one started (see
	// BeginEpoch).
	epoch    uint64
	epochGen uint64
	// splitScratch is reused across this rank's Split calls for the
	// transient sorted-record view (the records are copied into the new
	// communicator's group before Split returns).
	splitScratch []splitRecord
}

// NewWorld creates a world of size ranks with the given machine model and
// noise seed. It panics if size < 1 or the machine fails validation.
func NewWorld(size int, machine sim.Machine, seed uint64) *World {
	if size < 1 {
		panic("mpi: world size must be at least 1")
	}
	if err := machine.Validate(); err != nil {
		panic(err)
	}
	w := &World{
		size:    size,
		machine: machine,
		seed:    seed,
		ranks:   make([]*rankState, size),
	}
	for r := 0; r < size; r++ {
		w.ranks[r] = &rankState{
			worldRank: r,
			rng:       sim.NewRNG(sim.Mix(seed, uint64(r), 0x6d7069)),
			epoch:     seed,
		}
	}
	w.dataFab = fabricOf[[]float64](w)
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Machine returns the world's machine model.
func (w *World) Machine() sim.Machine { return w.machine }

// Seed returns the world's noise seed.
func (w *World) Seed() uint64 { return w.seed }

// SetBufPool installs a payload-buffer recycler for the world's data plane.
// Call it before Run; a nil pool (the default) allocates every payload
// fresh. Pools may be shared across worlds that run sequentially (the sweep
// executor threads one per worker), not across concurrently running worlds'
// lifetimes — the pool itself is safe for concurrent use, so sharing is a
// throughput choice, not a safety one.
func (w *World) SetBufPool(p *BufPool) { w.bufs = p }

// BufPoolOf returns the installed payload-buffer recycler (nil when none).
// Workloads running on the world may borrow it for their own transient
// buffers — anything Put must no longer be referenced.
func (w *World) BufPoolOf() *BufPool { return w.bufs }

// SetTracer installs a trace sink for layers running on this world. Call
// it before Run; nil (the default) disables tracing, and every emitter
// nil-checks before building an event, so the disabled path costs one
// branch. Tracing never touches the virtual clocks or RNG streams —
// envelopes are byte-identical with tracing on or off.
func (w *World) SetTracer(t obs.Tracer) { w.trace = t }

// TracerOf returns the installed trace sink (nil when none). Emitters
// conventionally trace from rank 0 only, keeping event streams
// deterministic and volume bounded by the run, not the world size.
func (w *World) TracerOf() obs.Tracer { return w.trace }

// SetScheduler selects the execution mode for Run. Call it before Run; the
// default, SchedAuto, picks the event scheduler for small worlds on
// multi-core hosts (see EffectiveScheduler). Virtual-clock results are
// identical under every mode — the scheduler is a throughput choice, never
// a semantic one.
func (w *World) SetScheduler(k SchedulerKind) { w.schedKind = k }

// EffectiveScheduler resolves the mode Run will use (never SchedAuto).
// Auto picks the discrete-event scheduler only for worlds of at most
// DefaultEventThreshold ranks on hosts running more than one OS thread:
// the event loop exists to keep a small world's ranks from thrashing
// across cores, while under GOMAXPROCS=1 the Go runtime already serializes
// goroutines more cheaply than the baton handoff does.
func (w *World) EffectiveScheduler() SchedulerKind {
	if w.schedKind == SchedAuto {
		if w.size <= DefaultEventThreshold && runtime.GOMAXPROCS(0) > 1 {
			return SchedEvent
		}
		return SchedGoroutine
	}
	return w.schedKind
}

// registerWakers records condition variables the abort broadcast must
// reach.
func (w *World) registerWakers(ws []waker) {
	w.abortMu.Lock()
	w.wakers = append(w.wakers, ws...)
	w.abortMu.Unlock()
}

// Run executes body once per rank, concurrently, passing each rank its world
// communicator. It returns a non-nil error if any rank panicked; the
// remaining ranks are woken and unwound via ErrAborted panics.
// A World must not be reused after Run returns.
func (w *World) Run(body func(c *Comm)) error {
	if w.EffectiveScheduler() == SchedEvent {
		w.des = newDES(w)
	}
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			if w.des != nil {
				w.des.await(rank)
			}
			completed := false
			defer func() {
				if e := recover(); e != nil {
					w.abort(e)
				} else if !completed {
					// The goroutine exited via runtime.Goexit (e.g.
					// t.Fatal inside a rank body); peers must not be
					// left blocked.
					w.abort(fmt.Errorf("rank %d exited abnormally", rank))
				}
				if w.des != nil {
					// After abort bookkeeping, so a drain sees the flag.
					w.des.finish(rank)
				}
			}()
			body(w.worldComm(rank))
			completed = true
		}(r)
	}
	if w.des != nil {
		w.des.start()
	}
	wg.Wait()
	if w.aborted.Load() {
		w.abortMu.Lock()
		defer w.abortMu.Unlock()
		if err, ok := w.abortE.(error); ok {
			return fmt.Errorf("mpi: rank failure: %w", err)
		}
		return fmt.Errorf("mpi: rank failure: %v", w.abortE)
	}
	return nil
}

// abort records the first failure and wakes every blocked rank: the flag is
// published first, then each registered condition variable is broadcast
// under its own lock so a rank between its abort check and its Wait cannot
// miss the wakeup.
func (w *World) abort(e any) {
	w.abortMu.Lock()
	if !w.aborted.Load() {
		w.abortE = e
		w.aborted.Store(true)
	}
	wakers := w.wakers
	w.abortMu.Unlock()
	for _, wk := range wakers {
		wk.mu.Lock()
		wk.cond.Broadcast()
		wk.mu.Unlock()
	}
}

// checkAbort panics with ErrAborted if the world has failed; the panic
// unwinds through the caller's defers. Callers blocked on a condition
// variable hold its lock around both this check and the Wait, which —
// together with abort's lock-and-broadcast — makes the wakeup reliable.
func (w *World) checkAbort() {
	if w.aborted.Load() {
		panic(ErrAborted)
	}
}

// worldComm builds rank's handle on the world communicator (context 0).
func (w *World) worldComm(rank int) *Comm {
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	return &Comm{
		w:     w,
		ctx:   0,
		rank:  rank,
		group: group,
		state: w.ranks[rank],
	}
}
