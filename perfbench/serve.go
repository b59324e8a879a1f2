package main

// The serve-mix workload: an in-process critter-serve (service.New over a
// durable store.Store, behind service.NewServer on a loopback listener)
// driven by a closed loop of HTTP clients. Every third submission repeats
// one fixed spec (the dedup/memo read path); the rest carry fresh seeds
// and execute and persist (the write path).

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"critter/internal/autotune"
	"critter/internal/obs"
	"critter/internal/service"
	"critter/internal/sim"
	"critter/internal/store"
	"critter/internal/workload"
)

// serveHistory is the service's default bound on retained finished jobs;
// timing starts once the history has reached it.
const serveHistory = 256

// minJobs is the fewest completed jobs a timed window may hold, so that
// job_p95_ms rests on at least ten samples beyond it.
const minJobs = 200

// maxFailures stops the clients of a run whose jobs keep failing, rather
// than retrying until the run is killed.
const maxFailures = 20

// serviceLayerMetrics are the per-layer metrics of the service and store
// layers, which only serve-mix exercises.
var serviceLayerMetrics = []struct{ name, unit string }{
	{"service.submit_ms_p50", "ms"},
	{"service.queue_ms_p50", "ms"},
	{"service.queue_ms_p95", "ms"},
	{"service.exec_ms_p50", "ms"},
	{"service.deliver_ms_p50", "ms"},
	{"service.dedup_ratio", "ratio"},
	{"store.bytes_per_job", "B"},
	{"store.compactions", "count"},
}

// jobBody is the JSON body of one submission.
func jobBody(seed uint64, dedup bool) []byte {
	req := map[string]any{
		"workload": "slate-chol", "scale": "quick",
		"policies": []string{"online"}, "eps": []float64{0.125},
		"seed": seed, "warmStart": false,
	}
	if !dedup {
		req["dedup"] = false
	}
	b, _ := json.Marshal(req)
	return b
}

// server is one boot of the in-process service.
type server struct {
	st     *store.Store
	sched  *service.Scheduler
	srv    *http.Server
	base   string
	served chan error
}

func startServer(dir string, reg *workload.Registry) (*server, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	sched := service.New(service.Config{
		Registry: reg,
		Machine:  sim.DefaultMachine(),
		Durable:  st,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sched.Close(context.Background())
		st.Close()
		return nil, err
	}
	s := &server{
		st: st, sched: sched, srv: &http.Server{Handler: service.NewServer(sched)},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, the scheduler and the store down, in that order,
// and waits for the serving goroutine to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{s.srv.Shutdown(ctx)}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, s.sched.Close(ctx), s.st.Close())
	return errors.Join(errs...)
}

// counter reads one counter or gauge from the scheduler's metrics.
func (s *server) counter(name string) float64 {
	for _, f := range s.sched.Metrics().Snapshot() {
		if f.Name == name && len(f.Metrics) > 0 {
			return f.Metrics[0].Value
		}
	}
	return 0
}

// jobSample is one completed job as the client saw it. The envelope itself
// is checked and dropped when the job completes, so that the benchmark's
// own memory does not grow with the number of jobs run.
type jobSample struct {
	id       string
	fixed    bool
	deduped  bool
	submitMs float64
	totalMs  float64
	status   service.JobStatus // in-process snapshot taken after the result arrived
	// start is when the client began the submission, bodyAt when it held
	// the result body.
	start, bodyAt time.Time
	// Kernel counts summed over the job's SSE sweep events.
	executed, skipped, memoized int64
	// outcomes holds the outcome terms of a fresh job that executed.
	outcomes []sweepOutcome
	// Traced jobs only: the re-encoding time of the fetched envelope,
	// and, for executed jobs, the sweeps' wall-clock bounds and the round
	// and config event counts from the job's trace ring.
	encodeMs        float64
	sweeps          [][2]int64
	rounds, configs int
}

// loadGen is the closed-loop client population, and the output checks
// it applies to every job it completes.
type loadGen struct {
	seed   uint64
	srv    *server
	client *http.Client
	// n numbers submissions; every third repeats the fixed spec.
	n      atomic.Int64
	failed atomic.Int64
	// traced makes every job record what the traced run reports.
	traced atomic.Bool

	mu sync.Mutex
	// fresh holds the fresh seeds drawn so far, in submission order.
	fresh []uint64
	// replay, when set, makes fresh submissions re-run the listed fresh
	// seeds with dedup off, in order, instead of drawing new ones.
	replay   []uint64
	replayed int
	// fixedEnv is the fixed spec's first envelope; freshDigest maps a
	// fresh seed's index to its first envelope's digest.
	fixedEnv    []byte
	freshDigest map[int][sha256.Size]byte
	checks      checks
}

// nextSpec picks the next submission: the fixed spec, or a fresh one.
func (l *loadGen) nextSpec() (body []byte, fixed bool, idx int) {
	n := l.n.Add(1) - 1
	if n%3 == 0 {
		return jobBody(l.seed, true), true, -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.replay != nil {
		idx = l.replayed % len(l.replay)
		l.replayed++
		return jobBody(l.replay[idx], false), false, idx
	}
	idx = len(l.fresh)
	l.fresh = append(l.fresh, mix(l.seed, uint64(1<<32+idx)))
	return jobBody(l.fresh[idx], true), false, idx
}

// run drives clients until until reports true before a submission, and
// returns every completed job.
func (l *loadGen) run(clients int, until func(done int) bool) []jobSample {
	var mu sync.Mutex
	var jobs []jobSample
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				stop := until(len(jobs)) || l.failed.Load() >= maxFailures
				mu.Unlock()
				if stop {
					return
				}
				j, err := l.one()
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: job: %v\n", err)
					l.failed.Add(1)
					continue
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs
}

// one submits a job, follows its event stream to the end, fetches the
// result and checks it. A refusal (429 included) or any other failure is
// an error.
func (l *loadGen) one() (jobSample, error) {
	body, fixed, idx := l.nextSpec()
	j := jobSample{fixed: fixed, start: time.Now()}
	resp, err := l.client.Post(l.srv.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return j, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, data)
	}
	j.submitMs = msSince(j.start)
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		return j, fmt.Errorf("submit: bad status %q", data)
	}
	j.id, j.deduped = st.ID, st.Deduped
	if err := l.stream(&j); err != nil {
		return j, err
	}
	resp, err = l.client.Get(l.srv.base + "/v1/jobs/" + j.id + "/result")
	if err != nil {
		return j, fmt.Errorf("%s: result: %w", j.id, err)
	}
	env, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return j, fmt.Errorf("%s: result: HTTP %d", j.id, resp.StatusCode)
	}
	j.bodyAt = time.Now()
	j.totalMs = float64(j.bodyAt.Sub(j.start).Nanoseconds()) / 1e6
	status, ok := l.srv.sched.Status(j.id)
	if !ok {
		return j, fmt.Errorf("%s: no status after completion", j.id)
	}
	j.status = status
	l.check(&j, idx, env)
	if l.traced.Load() && !j.deduped {
		events, _, _ := l.srv.sched.Trace(j.id)
		j.readTrace(events)
	}
	return j, nil
}

// stream reads the job's SSE stream until its terminal event, summing the
// sweep events' kernel counts; the job must end in done.
func (l *loadGen) stream(j *jobSample) error {
	resp, err := l.client.Get(l.srv.base + "/v1/jobs/" + j.id + "/events")
	if err != nil {
		return fmt.Errorf("%s: events: %w", j.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: events: HTTP %d", j.id, resp.StatusCode)
	}
	last := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if t, ok := strings.CutPrefix(line, "event: "); ok {
			last = t
		} else if d, ok := strings.CutPrefix(line, "data: "); ok && last == "sweep" {
			var ev service.Event
			if err := json.Unmarshal([]byte(d), &ev); err != nil {
				return fmt.Errorf("%s: sweep event: %w", j.id, err)
			}
			j.executed += ev.Executed
			j.skipped += ev.Skipped
			j.memoized += ev.Memoized
		}
	}
	if last != "done" {
		return fmt.Errorf("%s: stream ended in %q, not done", j.id, last)
	}
	return nil
}

// check applies the output checks to a completed job's envelope: it must
// decode; the fixed spec's envelopes must all equal its first, whether
// deduped, memoized or re-executed; a re-run fresh seed's envelope must
// equal its first run's. It also keeps the outcome terms of fresh jobs
// that executed.
func (l *loadGen) check(j *jobSample, idx int, env []byte) {
	decoded, err := autotune.DecodeEnvelope(env)
	if err == nil && l.traced.Load() {
		start := time.Now()
		_, _ = json.Marshal(decoded) // a decoded envelope always re-encodes
		j.encodeMs = msSince(start)
	}
	if err == nil && !j.fixed && !j.deduped && decoded.Result != nil {
		for _, row := range decoded.Result.Sweeps {
			for _, sw := range row {
				j.outcomes = append(j.outcomes, outcomeOf(sw))
			}
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.checks.failf("%s: %v", j.id, err)
	}
	if j.status.State != service.StateDone {
		l.checks.failf("%s: state %s", j.id, j.status.State)
	}
	if j.fixed {
		if l.fixedEnv == nil {
			l.fixedEnv = env
		} else if !bytes.Equal(env, l.fixedEnv) {
			l.checks.failf("%s: envelope of the repeated spec differs from its first (deduped %v)", j.id, j.deduped)
		}
		return
	}
	digest := sha256.Sum256(env)
	if first, ok := l.freshDigest[idx]; !ok {
		l.freshDigest[idx] = digest
	} else if first != digest {
		l.checks.failf("%s: re-run of fresh seed %d differs from its first envelope", j.id, idx)
	}
}

// readTrace extracts the sweep spans and the round and config event
// counts from an executed job's trace ring.
func (j *jobSample) readTrace(events []obs.Event) {
	begun := map[string]int64{}
	for _, ev := range events {
		cell := cellName(ev.Policy, ev.Eps)
		switch {
		case ev.Kind == obs.KindRound:
			j.rounds++
		case ev.Kind == obs.KindConfig && ev.Phase == obs.PhaseEnd:
			j.configs++
		case ev.Kind == obs.KindSweep && ev.Phase == obs.PhaseBegin:
			begun[cell] = ev.WallNanos
		case ev.Kind == obs.KindSweep && ev.Phase == obs.PhaseEnd:
			if b, ok := begun[cell]; ok {
				j.sweeps = append(j.sweeps, [2]int64{b, ev.WallNanos})
			}
		}
	}
}

// checkGolden compares the fixed spec's result, at seed 42, with the
// golden slate-chol grid's cell of the same policy and eps.
func (l *loadGen) checkGolden() {
	const name = "envelope_slate-chol_exhaustive.golden.json"
	env, err := autotune.DecodeEnvelope(l.fixedEnv)
	if err != nil || env.Result == nil || len(env.Result.Sweeps) != 1 || len(env.Result.Sweeps[0]) != 1 {
		l.checks.failf("fixed-spec envelope is not a one-sweep grid (%v)", err)
		return
	}
	golden, err := goldenCells(name)
	if err != nil {
		l.checks.failf("%v", err)
		return
	}
	sw := env.Result.Sweeps[0][0]
	want, ok := golden[cellKey(sw)]
	got, _ := json.Marshal(sw)
	if !ok || !bytes.Equal(got, want) {
		l.checks.failf("fixed-spec result differs from the golden %s cell of %s (present %v)", cellKey(sw), name, ok)
	}
	fmt.Fprintf(os.Stderr, "perfbench: 1 golden cell of %s checked\n", name)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// freshOutcomes gathers the outcome terms of the fresh jobs that executed.
func freshOutcomes(jobs []jobSample) []sweepOutcome {
	var out []sweepOutcome
	for _, j := range jobs {
		out = append(out, j.outcomes...)
	}
	return out
}

// jobTimes returns every job's submit-to-result latency, and the
// execution time (Finished-Started) of the jobs that executed, both in ms.
func jobTimes(jobs []jobSample) (total, exec []float64) {
	for _, j := range jobs {
		total = append(total, j.totalMs)
		if !j.deduped {
			exec = append(exec, float64(j.status.Finished.Sub(j.status.Started).Nanoseconds())/1e6)
		}
	}
	return total, exec
}

func runServeMix(r run) (*result, error) {
	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	clients := runtime.NumCPU()

	// The traced run resolves workloads through a registry whose
	// slate-chol study times its rank-0 Study.Run calls.
	rec := newRecorder()
	timer := &studyTimer{rec: rec}
	reg := workload.Default()
	if r.trace {
		reg = workload.NewRegistry()
		base, _ := workload.Lookup("slate-chol")
		if err := reg.Register(workload.Def{
			WorkloadName: base.Name(), Description: base.Describe(),
			BuildFunc:       func(sc autotune.Scale) autotune.Study { return timer.wrap(base.Build(sc)) },
			DefaultPolicies: base.Policies(), ScalePresets: base.Scales(),
		}); err != nil {
			return nil, err
		}
	}

	// Fill the store to the steady state: the retained history at its
	// bound. Not timed; the set-up repetitions below restart over it.
	fillStart := time.Now()
	srv, err := startServer(dir, reg)
	if err != nil {
		return nil, err
	}
	gen := &loadGen{
		seed: r.seed, srv: srv, freshDigest: make(map[int][sha256.Size]byte),
		// A job takes milliseconds; the timeout only ends a hung run.
		client: &http.Client{Timeout: time.Minute},
	}
	fill := gen.run(clients, func(int) bool { return len(srv.sched.Jobs()) >= serveHistory })
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix: filled %d jobs in %.1fs, store %d bytes\n",
		len(fill), time.Since(fillStart).Seconds(), srv.st.LogSize())

	// Set-up, setupReps times: stop, reopen and replay the store, boot the
	// scheduler and listener, and run one warm-up job.
	var setups []float64
	for range setupReps {
		if err := srv.stop(); err != nil {
			return nil, fmt.Errorf("stop server: %w", err)
		}
		start := time.Now()
		if srv, err = startServer(dir, reg); err != nil {
			return nil, err
		}
		gen.srv = srv
		if _, err := gen.one(); err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer srv.stop()

	window := func(seconds float64) ([]jobSample, float64) {
		start := time.Now()
		jobs := gen.run(clients, func(done int) bool {
			return done >= minJobs && time.Since(start).Seconds() >= seconds
		})
		return jobs, time.Since(start).Seconds()
	}

	res := &result{Metrics: map[string]metric{}}
	m := res.Metrics
	if !r.trace {
		heap := startHeapPeak(time.Second)
		jobs, elapsed := window(r.seconds)
		peak := heap.stop()
		total, exec := jobTimes(jobs)
		out := outcome(freshOutcomes(jobs))
		m["setup_s"] = metric{quantile(setups, 0.5), "s"}
		// A job's grid lasts about 10 ms, shorter than the host's speed
		// phases, so single grid times form a fast and a slow mode and
		// their median flips between them from run to run. The mean
		// weighs the phases by their length, as a tune-* grid of seconds
		// does.
		m["grid_s"] = metric{mean(exec) / 1000, "s"}
		m["virtual_speedup"] = metric{out.speedup, "x"}
		m["prediction_error_pct"] = metric{out.errPct, "%"}
		m["peak_heap_mb"] = metric{peak, "MB"}
		m["job_p50_ms"] = metric{quantile(total, 0.5), "ms"}
		m["job_p95_ms"] = metric{quantile(total, 0.95), "ms"}
		m["jobs_per_s"] = metric{float64(len(jobs)) / elapsed, "1/s"}
		res.Attempted = len(jobs) + int(gen.failed.Load())
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix: %d jobs (%d executed) in %.1fs, %d clients\n",
			len(jobs), len(exec), elapsed, clients)
	} else {
		mem := readMem()
		plain, _ := window(r.seconds / 2)
		md := memSince(mem)
		plainTotal, _ := jobTimes(plain)

		// The traced half re-runs the fresh seeds drawn so far, in order,
		// with dedup off: their envelopes must not change under tracing.
		gen.mu.Lock()
		gen.replay = append([]uint64(nil), gen.fresh...)
		gen.mu.Unlock()
		logBytes, reclaimed, compactions := srv.counter("store_log_bytes"), srv.counter("store_compact_bytes_reclaimed_total"), srv.counter("store_compactions_total")
		timer.on.Store(true)
		gen.traced.Store(true)
		traced, _ := window(r.seconds / 2)
		gen.traced.Store(false)
		timer.on.Store(false)
		written := srv.counter("store_log_bytes") - logBytes + srv.counter("store_compact_bytes_reclaimed_total") - reclaimed

		tracedTotal, exec := jobTimes(traced)
		var submit, queue, deliver, encode, sweepMs []float64
		var rounds, configs, executed, skipped, memoized, deduped float64
		for _, j := range traced {
			st := j.status
			root := rec.add("job", j.id, 0, j.start, j.bodyAt)
			submit = append(submit, j.submitMs)
			deliver = append(deliver, float64(j.bodyAt.Sub(st.Finished).Nanoseconds())/1e6)
			encode = append(encode, j.encodeMs)
			rec.add("service.deliver", j.id, root, st.Finished, j.bodyAt)
			if j.deduped {
				deduped++
				continue
			}
			queue = append(queue, float64(st.Started.Sub(st.Submitted).Nanoseconds())/1e6)
			rec.add("service.queue", j.id, root, st.Submitted, st.Started)
			rec.add("service.exec", j.id, root, st.Started, st.Finished)
			executed += float64(j.executed)
			skipped += float64(j.skipped)
			memoized += float64(j.memoized)
			rounds += float64(j.rounds)
			configs += float64(j.configs)
			for _, sw := range j.sweeps {
				sweepMs = append(sweepMs, float64(sw[1]-sw[0])/1e6)
				rec.add("autotune.sweep", j.id, root, time.Unix(0, sw[0]), time.Unix(0, sw[1]))
			}
		}
		rec.adopt(spanStudyFull, "service.exec")
		rec.adopt(spanStudySel, "service.exec")
		fullMs, selMs, refShare := studyShares(rec)
		out := outcome(freshOutcomes(plain))
		workers := float64(runtime.GOMAXPROCS(0))

		m["autotune.sweep_ms_p50"] = metric{quantile(sweepMs, 0.5), "ms"}
		m["autotune.sweep_ms_p90"] = metric{quantile(sweepMs, 0.9), "ms"}
		m["autotune.pool_busy"] = metric{ratio(sum(sweepMs), workers*sum(exec)), "ratio"}
		m["autotune.ref_share"] = metric{refShare, "ratio"}
		m["autotune.encode_ms"] = metric{quantile(encode, 0.5), "ms"}
		m["study.full_ms"] = metric{fullMs, "ms"}
		m["study.selective_ms"] = metric{selMs, "ms"}
		m["critter.host_speedup"] = metric{ratio(fullMs, selMs), "x"}
		m["critter.skip_ratio"] = metric{ratio(skipped, executed+skipped), "ratio"}
		m["critter.memo_ratio"] = metric{ratio(memoized, skipped), "ratio"}
		m["critter.rounds_per_config"] = metric{ratio(rounds, configs), "count"}
		m["service.submit_ms_p50"] = metric{quantile(submit, 0.5), "ms"}
		m["service.queue_ms_p50"] = metric{quantile(queue, 0.5), "ms"}
		m["service.queue_ms_p95"] = metric{quantile(queue, 0.95), "ms"}
		m["service.exec_ms_p50"] = metric{quantile(exec, 0.5), "ms"}
		m["service.deliver_ms_p50"] = metric{quantile(deliver, 0.5), "ms"}
		m["service.dedup_ratio"] = metric{ratio(deduped, float64(len(traced))), "ratio"}
		m["store.bytes_per_job"] = metric{ratio(written, float64(len(exec))), "B"}
		m["store.compactions"] = metric{srv.counter("store_compactions_total") - compactions, "count"}
		m["obs.trace_overhead_pct"] = metric{100 * (ratio(quantile(tracedTotal, 0.5), quantile(plainTotal, 0.5)) - 1), "%"}
		m["runtime.alloc_mb"] = metric{float64(md.allocBytes) / (1 << 20) / float64(len(plain)), "MB"}
		m["runtime.gc_cycles"] = metric{float64(md.gcCycles) / float64(len(plain)), "count"}
		m["selection_gap_pct"] = metric{out.gapPct, "%"}
		if err := layerProbes(m, r.seed); err != nil {
			return nil, err
		}
		res.Attempted = len(plain) + len(traced) + int(gen.failed.Load())
		if err := rec.finish(r.workload, r.seed); err != nil {
			return nil, err
		}
	}
	res.Failed = int(gen.failed.Load())
	if r.trace {
		m["error_rate"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio"}
	}
	if r.seed == 42 {
		gen.checkGolden()
	}
	res.Correct = gen.checks.ok()
	return res, nil
}
