package autotune

// Reference runs: the full execution each configuration's selective runs
// are judged against. A reference run begins a noise epoch keyed by the
// study, the configuration and the reference role alone
// (critter.Profiler.StartConfigKeyed), so its report depends only on
// (study, configuration, machine, seed) — not on the sweep, the strategy,
// the worker count, the scheduler, or what the world ran before it. That
// makes it computable once: a Tuner's sweeps share one reference table, and
// FullOnly runs the very same helper.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"critter/internal/critter"
	"critter/internal/mpi"
	"critter/internal/sim"
)

// newReferenceProfiler builds the rank's reference profiler: full
// execution (Eps 0), never warm-started. Collective.
func newReferenceProfiler(c *mpi.Comm, memo *critter.KernelMemo) (*critter.Profiler, *critter.Comm) {
	return critter.New(c, critter.Options{Policy: critter.Conditional, Eps: 0, Memo: memo})
}

// reference runs configuration v with full execution under ref and returns
// its report. The run's memo key lets it publish its interner for the
// selective runs of the configuration to adopt. Collective.
func reference(ref *critter.Profiler, cc *critter.Comm, study Study, v int) critter.Report {
	ref.StartConfigKeyed(true, critter.RunKey{
		Config: critter.ConfigKey(study.Name, v),
		Role:   critter.RoleReference,
	})
	study.Run(ref, cc, v)
	return ref.Report()
}

// refTable is the reference table one Run, Stream or RunTuners tuner
// shares across its sweeps: one slot per evaluated configuration, filled
// by the first sweep world to reach the configuration and read by every
// other. Alongside the report a slot carries the interner the reference
// published to its worker's memo; a reading world shares it into its own
// worker's memo, so every selective run adopts the reference's interner,
// as it would directly after running the reference itself. A slot is claimed only while its reference is computing, and a
// world computing a reference never waits on the table, so waiting
// cannot deadlock.
type refTable struct {
	mu    sync.Mutex
	slots map[int]*refSlot
}

// refSlot is one configuration's entry.
type refSlot struct {
	full  critter.Report
	entry *critter.MemoEntry // nil without a memo
	done  bool
	// busy is non-nil while a world computes the reference; it is closed
	// when that world publishes the report or gives up.
	busy chan struct{}
}

func newRefTable() *refTable { return &refTable{slots: make(map[int]*refSlot)} }

// acquire returns configuration v's slot once its report is known; a known
// slot is never written again. Otherwise (nil) the caller now holds the
// claim and must settle it. While another world computes the reference,
// acquire waits for it, or for ctx to be done.
func (t *refTable) acquire(ctx context.Context, v int) (*refSlot, error) {
	for {
		t.mu.Lock()
		s := t.slots[v]
		if s == nil {
			s = &refSlot{}
			t.slots[v] = s
		}
		if s.done {
			t.mu.Unlock()
			return s, nil
		}
		if s.busy == nil {
			s.busy = make(chan struct{})
			t.mu.Unlock()
			return nil, nil
		}
		busy := s.busy
		t.mu.Unlock()
		select {
		case <-busy:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// settle ends the caller's claim on configuration v: with ok, full and
// entry fill the slot; without, the slot reopens for the next world.
func (t *refTable) settle(v int, full critter.Report, entry *critter.MemoEntry, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slots[v]
	s.full, s.entry, s.done = full, entry, ok
	close(s.busy)
	s.busy = nil
}

// fetch returns configuration v's reference report on every rank, running
// the reference in this world only when no other world has (ran reports
// which). Rank 0 consults the table, shares a known slot's interner into
// memo (the world's worker memo, may be nil), and hands the other ranks the
// known report, or nil, through one untimed round; a claim is settled even
// when the world aborts mid-run. Collective.
func (t *refTable) fetch(ctx context.Context, c *mpi.Comm, memo *critter.KernelMemo, ref *critter.Profiler, cc *critter.Comm, study Study, v int) (full critter.Report, ran bool) {
	var known *critter.Report
	if c.Rank() == 0 {
		key := critter.ConfigKey(study.Name, v)
		s, err := t.acquire(ctx, v)
		if err != nil {
			panic(cancelError{err})
		}
		if s != nil {
			known = &s.full
			if memo != nil {
				memo.Share(key, s.entry)
			}
		} else {
			// Settle the claim on every exit: with the report and the
			// interner it published once the run returns, reopened when
			// the world aborts (ran stays false while a panic unwinds).
			defer func() {
				var entry *critter.MemoEntry
				if ran && memo != nil {
					entry = memo.Entry(key)
				}
				t.settle(v, full, entry, ran)
			}()
		}
	}
	if known = mpi.GatherMsgUntimed(c, known)[0]; known != nil {
		return *known, false
	}
	return reference(ref, cc, study, v), true
}

// FullOnly runs every configuration once with full execution through the
// sweep's reference helper, returning the per-configuration reports (the
// data of Figure 3: BSP cost trade-offs and execution-time breakdowns).
// Report v equals the Full report of configuration v in any Tuner sweep
// of the same study, machine and seed. Configurations run concurrently on
// workers goroutines (0 or negative means runtime.GOMAXPROCS(0)), each in
// its own world. The report slice is always returned, with failed or
// cancelled configurations zeroed, alongside the joined errors.
func FullOnly(ctx context.Context, study Study, machine sim.Machine, seed uint64, workers int) ([]critter.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := study.Size()
	reports := make([]critter.Report, n)
	errs := make([]error, n)
	var scratches sync.Map // worker -> *scratch
	forEachBounded(n, workers, func(v, worker int) {
		sc, ok := scratches.Load(worker)
		if !ok {
			sc, _ = scratches.LoadOrStore(worker, newScratch())
		}
		errs[v] = fullOnlyConfig(ctx, study, machine, seed, v, sc.(*scratch), &reports[v])
	})
	return reports, errors.Join(errs...)
}

// fullOnlyConfig runs one configuration's reference in its own world —
// wired to the worker's arena — storing rank 0's report.
func fullOnlyConfig(ctx context.Context, study Study, machine sim.Machine, seed uint64, v int, sc *scratch, out *critter.Report) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("autotune: %s: config %d: %w", study.Name, v, err)
	}
	w := sc.world(study.WorldSize, machine, seed)
	err := w.Run(func(c *mpi.Comm) {
		ref, cc := newReferenceProfiler(c, sc.memo)
		rep := reference(ref, cc, study, v)
		ref.Retire()
		if c.Rank() == 0 {
			*out = rep
		}
	})
	if err != nil {
		*out = critter.Report{}
		return fmt.Errorf("autotune: %s: config %d: %w", study.Name, v, err)
	}
	return nil
}
