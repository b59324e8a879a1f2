package main

// The benchmark's own tracing: spans recorded around the calls the
// benchmark makes into each layer (and around the program's rank-0
// Study.Run calls, through a wrapper installed on the study), kept in
// memory, written out when the run ends, and summarised with self time.
// The program itself is not instrumented by this file.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/obs"
)

// span is one timed call. Start and End are nanoseconds since the
// recorder's epoch; Parent is 0 for a root. Key names the grid or job the
// span belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory; safe for concurrent use.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(name, key string, parent int64, start, end time.Time) int64 {
	return r.addWithID(r.next.Add(1), name, key, parent, start, end)
}

// addWithID records a finished span under an ID reserved earlier with
// r.next.Add, so that children can name a parent that has not ended yet.
func (r *recorder) addWithID(id int64, name, key string, parent int64, start, end time.Time) int64 {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Key: key,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	r.mu.Unlock()
	return id
}

// durations returns the durations in milliseconds of the spans named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// adopt makes each root span named child a child of the span named parent
// that encloses it, when exactly one does.
func (r *recorder) adopt(child, parent string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var parents []span
	for _, s := range r.spans {
		if s.Name == parent {
			parents = append(parents, s)
		}
	}
	for i, s := range r.spans {
		if s.Name != child || s.Parent != 0 {
			continue
		}
		var found *span
		for k := range parents {
			p := &parents[k]
			if p.Start <= s.Start && s.End <= p.End {
				if found != nil {
					found = nil
					break
				}
				found = p
			}
		}
		if found != nil {
			r.spans[i].Parent, r.spans[i].Key = found.ID, found.Key
		}
	}
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints, per span name, the count, total and self time. A span's
// self time is its duration minus the part of it its children cover.
func (r *recorder) report(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	type agg struct {
		n           int
		total, self float64
	}
	by := make(map[string]*agg)
	var names []string
	for _, s := range r.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		d := float64(s.End - s.Start)
		a.total += d
		a.self += d - float64(covered(s.Start, s.End, children[s.ID]))
	}
	sort.Slice(names, func(i, k int) bool { return by[names[i]].total > by[names[k]].total })
	fmt.Fprintf(w, "%-26s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-26s %8d %12.3f %12.3f\n", n, a.n, a.total/1e6, a.self/1e6)
	}
}

// covered returns how much of [start, end) the union of ivs covers.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, k int) bool { return ivs[i][0] < ivs[k][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// finish writes the spans to outDir and prints the self-time report.
func (r *recorder) finish(workload string, seed uint64) error {
	path := fmt.Sprintf("%s/spans-%s-%d.jsonl", outDir, workload, seed)
	if err := r.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	r.report(os.Stderr)
	return nil
}

// studyTimer times rank-0 Study.Run calls, split into reference runs and
// every other run (selective runs, and the a-priori policy's offline
// pass), through a wrapper installed on the study. The wrapper reads only
// the calling rank and the profiler's settings: it calls no collective.
type studyTimer struct {
	rec *recorder
	on  atomic.Bool
	// parent, when set, names the span new study spans belong to.
	parent atomic.Int64
	key    atomic.Value // string
}

const (
	spanStudyFull = "study.run.full"
	spanStudySel  = "study.run.selective"
)

// wrap returns st with its Run field timed by t while t is on.
func (t *studyTimer) wrap(st autotune.Study) autotune.Study {
	inner := st.Run
	st.Run = func(p *critter.Profiler, cc *critter.Comm, v int) {
		if cc.Rank() != 0 || !t.on.Load() {
			inner(p, cc, v)
			return
		}
		name := spanStudySel
		if p.Eps() == 0 && p.Policy() == critter.Conditional {
			name = spanStudyFull
		}
		start := time.Now()
		inner(p, cc, v)
		key, _ := t.key.Load().(string)
		t.rec.add(name, key, t.parent.Load(), start, time.Now())
	}
	return st
}

// studyShares returns the per-call mean milliseconds of reference and
// other runs, and the reference runs' share of all rank-0 Study.Run time.
func studyShares(rec *recorder) (fullMs, selMs, refShare float64) {
	full, sel := rec.durations(spanStudyFull), rec.durations(spanStudySel)
	return mean(full), mean(sel), ratio(sum(full), sum(full)+sum(sel))
}

// sweepTracer is the benchmark's obs.Tracer for Tuner.Tracer: it turns the
// tuner's sweep begin/end events into spans under the current grid, and
// counts rank-0 propagation-round events and finished configurations.
type sweepTracer struct {
	rec     *recorder
	grid    atomic.Int64
	key     atomic.Value // string
	mu      sync.Mutex
	begun   map[string]time.Time
	rounds  atomic.Int64
	configs atomic.Int64
}

func newSweepTracer(rec *recorder) *sweepTracer {
	return &sweepTracer{rec: rec, begun: make(map[string]time.Time)}
}

// Emit implements obs.Tracer.
func (t *sweepTracer) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindRound:
		t.rounds.Add(1)
	case obs.KindConfig:
		if ev.Phase == obs.PhaseEnd {
			t.configs.Add(1)
		}
	case obs.KindSweep:
		now := time.Now()
		cell := cellName(ev.Policy, ev.Eps)
		t.mu.Lock()
		defer t.mu.Unlock()
		if ev.Phase == obs.PhaseBegin {
			t.begun[cell] = now
			return
		}
		key, _ := t.key.Load().(string)
		t.rec.add("autotune.sweep", key+"/"+cell, t.grid.Load(), t.begun[cell], now)
		delete(t.begun, cell)
	}
}
