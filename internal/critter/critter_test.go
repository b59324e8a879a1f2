package critter

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"critter/internal/mpi"
	"critter/internal/sim"
)

// TestPolicyJSONRoundTrip checks that policies serialize by name and decode
// back, so critter-tune -json output can be unmarshaled into library types.
func TestPolicyJSONRoundTrip(t *testing.T) {
	for _, p := range Policies {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + p.String() + `"`; string(data) != want {
			t.Errorf("policy %s marshals to %s, want %s", p, data, want)
		}
		var back Policy
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != p {
			t.Errorf("round trip: %s -> %s", p, back)
		}
	}
	var bad Policy
	if err := json.Unmarshal([]byte(`"bogus"`), &bad); err == nil {
		t.Error("unknown policy name should fail to decode")
	}
	if err := json.Unmarshal([]byte(`3`), &bad); err == nil {
		t.Error("numeric policy should fail to decode (names only)")
	}
}

func testMachine(noise float64) sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseSigma = noise
	return m
}

// runProfiled spins up a world of p ranks, builds a profiler per rank, and
// runs body. Reports from rank 0 are returned.
func runProfiled(t *testing.T, p int, noise float64, opts Options, body func(prof *Profiler, cc *Comm)) Report {
	t.Helper()
	w := mpi.NewWorld(p, testMachine(noise), 7)
	var rep Report
	var mu sync.Mutex
	if err := w.Run(func(c *mpi.Comm) {
		prof, cc := New(c, opts)
		body(prof, cc)
		r := prof.Report()
		if c.Rank() == 0 {
			mu.Lock()
			rep = r
			mu.Unlock()
		}
	}); err != nil {
		t.Fatalf("world: %v", err)
	}
	return rep
}

func TestFullExecutionNeverSkips(t *testing.T) {
	rep := runProfiled(t, 4, 0.05, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 64)
		for i := 0; i < 20; i++ {
			cc.Bcast(0, buf)
			p.Kernel("work", 8, 8, 8, 0, 1e5, func() {})
		}
	})
	if rep.Skipped != 0 {
		t.Errorf("eps=0 skipped %d kernels", rep.Skipped)
	}
	if rep.Executed == 0 {
		t.Error("nothing executed")
	}
	// With everything executed, predicted time equals wall time.
	if math.Abs(rep.Predicted-rep.Wall) > 1e-9*rep.Wall {
		t.Errorf("full execution: predicted %g != wall %g", rep.Predicted, rep.Wall)
	}
}

func TestSelectiveComputeSkipsAndPredicts(t *testing.T) {
	var execs, skips int64
	rep := runProfiled(t, 1, 0.02, Options{Policy: Conditional, Eps: 0.1}, func(p *Profiler, cc *Comm) {
		for i := 0; i < 200; i++ {
			p.Kernel("gemm", 32, 32, 32, 0, 2*32*32*32, func() { execs++ })
		}
		skips = p.skipped
	})
	if skips == 0 {
		t.Fatal("low-noise repeated kernel was never skipped at eps=0.1")
	}
	if execs < 2 {
		t.Fatal("kernel must execute at least twice to build a CI")
	}
	if rep.Predicted <= 0 {
		t.Error("predicted time should be positive")
	}
	// Skipped executions should not consume wall time: wall < predicted.
	if rep.Wall >= rep.Predicted {
		t.Errorf("wall %g should be below predicted %g when kernels are skipped", rep.Wall, rep.Predicted)
	}
}

func TestPredictionAccuracyImprovesWithTighterEps(t *testing.T) {
	// Run the same workload fully, then selectively at two tolerances;
	// the tighter tolerance must not be less accurate (statistically this
	// holds strongly at these sample sizes).
	workload := func(p *Profiler, cc *Comm) {
		for i := 0; i < 300; i++ {
			p.Kernel("k1", 16, 16, 16, 0, 5e4, func() {})
			p.Kernel("k2", 8, 8, 8, 0, 1e4, func() {})
		}
	}
	full := runProfiled(t, 1, 0.05, Options{Policy: Conditional, Eps: 0}, workload)
	loose := runProfiled(t, 1, 0.05, Options{Policy: Conditional, Eps: 0.5}, workload)
	tight := runProfiled(t, 1, 0.05, Options{Policy: Conditional, Eps: 0.01}, workload)
	errLoose := math.Abs(loose.Predicted-full.Predicted) / full.Predicted
	errTight := math.Abs(tight.Predicted-full.Predicted) / full.Predicted
	if errTight > 0.05 {
		t.Errorf("tight tolerance error %g too large", errTight)
	}
	if errLoose > 0.5 {
		t.Errorf("loose tolerance error %g implausibly large", errLoose)
	}
}

func TestMinimumOneExecutionPerConfig(t *testing.T) {
	runProfiled(t, 1, 0.0, Options{Policy: Conditional, Eps: 0.9}, func(p *Profiler, cc *Comm) {
		for i := 0; i < 50; i++ {
			p.Kernel("k", 4, 4, 4, 0, 1e3, func() {})
		}
		firstConfigExecs := p.executed
		if firstConfigExecs < 1 {
			t.Fatal("no executions in first config")
		}
		p.StartConfigKeyed(false, RunKey{Config: ConfigKey("min-one", 1)}) // keep stats
		for i := 0; i < 50; i++ {
			p.Kernel("k", 4, 4, 4, 0, 1e3, func() {})
		}
		if p.executed < 1 {
			t.Error("non-eager policy must execute each kernel at least once per configuration")
		}
		if p.executed > 2 {
			t.Errorf("zero-noise predictable kernel executed %d times in second config, want 1", p.executed)
		}
	})
}

func TestOnlineFreqCreditSkipsEarlier(t *testing.T) {
	// A kernel appearing many times along the path gains sqrt(freq) CI
	// shrink under Online, so it gets skipped earlier than Conditional.
	countExecs := func(policy Policy) int64 {
		var n int64
		runProfiled(t, 1, 0.3, Options{Policy: policy, Eps: 0.12}, func(p *Profiler, cc *Comm) {
			for i := 0; i < 400; i++ {
				p.Kernel("hot", 8, 8, 8, 0, 1e4, func() {})
			}
			n = p.executed
		})
		return n
	}
	cond := countExecs(Conditional)
	online := countExecs(Online)
	if online >= cond {
		t.Errorf("online (%d execs) should skip earlier than conditional (%d)", online, cond)
	}
}

func TestCollectiveAgreementNoHang(t *testing.T) {
	// With noise, ranks' models diverge; the internal allreduce must keep
	// bcast participation consistent (a hang here fails the test by
	// timeout; data correctness checked when executed).
	runProfiled(t, 4, 0.2, Options{Policy: Conditional, Eps: 0.3}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 32)
		for i := 0; i < 100; i++ {
			if cc.Rank() == 0 {
				for j := range buf {
					buf[j] = float64(i)
				}
			}
			cc.Bcast(0, buf)
		}
	})
}

func TestSkippedCollectiveSavesWallTime(t *testing.T) {
	full := runProfiled(t, 4, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 4096)
		for i := 0; i < 50; i++ {
			cc.Bcast(0, buf)
		}
	})
	selective := runProfiled(t, 4, 0.0, Options{Policy: Conditional, Eps: 0.5}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 4096)
		for i := 0; i < 50; i++ {
			cc.Bcast(0, buf)
		}
	})
	if selective.Wall >= full.Wall {
		t.Errorf("selective wall %g not below full wall %g", selective.Wall, full.Wall)
	}
	if selective.Skipped == 0 {
		t.Error("no collectives were skipped")
	}
	// Prediction should still be close (zero noise: exact after 2 samples).
	if e := math.Abs(selective.Predicted-full.Predicted) / full.Predicted; e > 0.02 {
		t.Errorf("skip-heavy prediction error %g", e)
	}
}

func TestSendRecvAgreement(t *testing.T) {
	rep := runProfiled(t, 2, 0.1, Options{Policy: Conditional, Eps: 0.25}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 128)
		for i := 0; i < 60; i++ {
			if cc.Rank() == 0 {
				cc.Send(1, i, buf)
			} else {
				cc.Recv(0, i, buf)
			}
		}
	})
	if rep.Skipped == 0 {
		t.Error("repeated p2p should eventually be skipped")
	}
}

func TestIsendCommittedProtocol(t *testing.T) {
	runProfiled(t, 2, 0.1, Options{Policy: Conditional, Eps: 0.25}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 64)
		for i := 0; i < 60; i++ {
			if cc.Rank() == 0 {
				r := cc.Isend(1, i, buf)
				r.Wait()
			} else {
				cc.Recv(0, i, buf)
			}
		}
	})
}

func TestIrecvLazyCompletion(t *testing.T) {
	runProfiled(t, 2, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		if cc.Rank() == 0 {
			r := cc.Isend(1, 3, []float64{7, 8})
			r.Wait()
		} else {
			buf := make([]float64, 2)
			req := cc.Irecv(0, 3, buf)
			req.Wait()
			req.Wait() // idempotent
			if buf[0] != 7 || buf[1] != 8 {
				t.Errorf("irecv got %v", buf)
			}
		}
	})
}

func TestIrecvSelectiveSkipsConsistently(t *testing.T) {
	runProfiled(t, 2, 0.1, Options{Policy: Conditional, Eps: 0.3}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 32)
		for i := 0; i < 50; i++ {
			if cc.Rank() == 0 {
				r := cc.Isend(1, i, buf)
				r.Wait()
			} else {
				req := cc.Irecv(0, i, buf)
				req.Wait()
			}
		}
		if cc.Rank() == 1 && p.skipped == 0 {
			t.Error("repeated irecv never skipped at loose tolerance")
		}
	})
}

func TestP2PDataIntegrityWhenExecuted(t *testing.T) {
	runProfiled(t, 2, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		if cc.Rank() == 0 {
			cc.Send(1, 9, []float64{1, 2, 3})
		} else {
			got := make([]float64, 3)
			cc.Recv(0, 9, got)
			if got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Errorf("profiled recv got %v", got)
			}
		}
	})
}

func TestSplitRegistersAggregates(t *testing.T) {
	runProfiled(t, 16, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		// 4x4 grid.
		row, col := cc.Rank()/4, cc.Rank()%4
		rowComm := cc.Split(row, col)
		colComm := cc.Split(col, row)
		if rowComm.Size() != 4 || colComm.Size() != 4 {
			t.Errorf("split sizes %d/%d", rowComm.Size(), colComm.Size())
		}
		if !p.HasFullGridAggregate() {
			t.Error("row+column channels should compose a full-grid aggregate")
		}
		// Communicate on the split communicators.
		sum := make([]float64, 1)
		rowComm.Allreduce([]float64{1}, sum, mpi.OpSum)
		if sum[0] != 4 {
			t.Errorf("row allreduce got %v", sum[0])
		}
	})
}

func TestEagerPropagationSwitchesKernelsOff(t *testing.T) {
	runProfiled(t, 16, 0.05, Options{Policy: Eager, Eps: 0.3}, func(p *Profiler, cc *Comm) {
		row, col := cc.Rank()/4, cc.Rank()%4
		rowComm := cc.Split(row, col)
		colComm := cc.Split(col, row)
		buf := make([]float64, 32)
		for i := 0; i < 80; i++ {
			p.Kernel("tilework", 16, 16, 0, 0, 2e4, func() {})
			rowComm.Bcast(0, buf)
			colComm.Bcast(0, buf)
		}
		if p.PropagatedKernels() == 0 {
			t.Error("eager never propagated any kernel across the grid")
		}
		if p.skipped == 0 {
			t.Error("eager never skipped despite propagation")
		}
	})
}

func TestEagerModelsPersistAcrossConfigs(t *testing.T) {
	runProfiled(t, 16, 0.05, Options{Policy: Eager, Eps: 0.3}, func(p *Profiler, cc *Comm) {
		row, col := cc.Rank()/4, cc.Rank()%4
		rowComm := cc.Split(row, col)
		colComm := cc.Split(col, row)
		buf := make([]float64, 32)
		run := func() {
			for i := 0; i < 60; i++ {
				p.Kernel("tilework", 16, 16, 0, 0, 2e4, func() {})
				rowComm.Bcast(0, buf)
				colComm.Bcast(0, buf)
			}
		}
		run()
		prop := p.PropagatedKernels()
		if prop == 0 {
			t.Fatal("no propagation in first config")
		}
		p.StartConfigKeyed(true, RunKey{Config: ConfigKey("eager", 1)}) // reset requested, but eager keeps models
		if p.PropagatedKernels() != prop {
			t.Error("eager lost propagated models at config boundary")
		}
		execsBefore := p.executed
		run()
		if p.executed-execsBefore > 10 {
			// Most kernels should be skipped from the start of config 2.
			t.Errorf("eager re-executed %d kernels in second config", p.executed-execsBefore)
		}
	})
}

func TestStartConfigResets(t *testing.T) {
	runProfiled(t, 1, 0.0, Options{Policy: Online, Eps: 0}, func(p *Profiler, cc *Comm) {
		p.Kernel("a", 1, 1, 1, 0, 1e3, func() {})
		if len(p.PathFreqs()) == 0 {
			t.Fatal("path should have entries")
		}
		p.StartConfigKeyed(true, RunKey{Config: ConfigKey("resets", 1)})
		if len(p.PathFreqs()) != 0 {
			t.Error("path not cleared")
		}
		if p.KernelCount() != 0 {
			t.Error("stats not cleared with resetStats=true")
		}
		if cc.Clock() != 0 {
			t.Error("clock not reset")
		}
	})
}

func TestGlobalPathFreqs(t *testing.T) {
	runProfiled(t, 4, 0.0, Options{Policy: Online, Eps: 0}, func(p *Profiler, cc *Comm) {
		// Rank 3 does extra compute to own the critical path.
		iters := 5
		if cc.Rank() == 3 {
			iters = 9
		}
		for i := 0; i < iters; i++ {
			p.Kernel("w", 2, 2, 2, 0, 1e6, func() {})
		}
		buf := make([]float64, 8)
		cc.Bcast(0, buf) // propagation point
		freqs := p.GlobalPathFreqs()
		key := CompKey("w", 2, 2, 2, 0)
		if freqs[key] != 9 {
			t.Errorf("critical-path freq = %d, want 9 (rank 3's count)", freqs[key])
		}
	})
}

func TestAPrioriUsesSuppliedFreqs(t *testing.T) {
	key := CompKey("hot", 8, 8, 8, 0)
	// With a large a-priori count, the CI shrinks by sqrt(freq), so the
	// kernel becomes skippable sooner than conditional.
	var withFreq, without int64
	runProfiled(t, 1, 0.3, Options{Policy: APriori, Eps: 0.12,
		AprioriFreq: map[Key]int64{key: 400}}, func(p *Profiler, cc *Comm) {
		for i := 0; i < 400; i++ {
			p.Kernel("hot", 8, 8, 8, 0, 1e4, func() {})
		}
		withFreq = p.executed
	})
	runProfiled(t, 1, 0.3, Options{Policy: Conditional, Eps: 0.12}, func(p *Profiler, cc *Comm) {
		for i := 0; i < 400; i++ {
			p.Kernel("hot", 8, 8, 8, 0, 1e4, func() {})
		}
		without = p.executed
	})
	if withFreq >= without {
		t.Errorf("apriori with freq 400 executed %d, conditional %d; want fewer", withFreq, without)
	}
}

func TestBSPAccounting(t *testing.T) {
	rep := runProfiled(t, 4, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 100)
		cc.Bcast(0, buf)                                       // 100 words, 1 sync
		cc.Allreduce(buf[:50], make([]float64, 50), mpi.OpSum) // 50 words, 1 sync
		p.Kernel("w", 1, 1, 1, 0, 1234, func() {})             // 1234 flops
	})
	if rep.BSPCommCrit != 150 {
		t.Errorf("BSP comm crit = %g, want 150", rep.BSPCommCrit)
	}
	if rep.BSPSyncCrit != 2 {
		t.Errorf("BSP sync crit = %g, want 2", rep.BSPSyncCrit)
	}
	if rep.BSPCompCrit != 1234 {
		t.Errorf("BSP comp crit = %g, want 1234", rep.BSPCompCrit)
	}
	// Volumetric equals critical here: all ranks did the same.
	if math.Abs(rep.BSPCommVol-150) > 1e-9 {
		t.Errorf("BSP comm vol = %g, want 150", rep.BSPCommVol)
	}
}

func TestPathMetricMaxPropagation(t *testing.T) {
	rep := runProfiled(t, 2, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		// Rank 1 computes more; after a collective, both ranks' pathsets
		// must carry rank 1's computation on the critical path.
		if cc.Rank() == 1 {
			p.Kernel("big", 4, 4, 4, 0, 1e7, func() {})
		}
		buf := make([]float64, 4)
		cc.Bcast(0, buf)
		if p.path.BSPComp < 1e7 {
			t.Errorf("rank %d path comp %g did not adopt critical-path flops", cc.Rank(), p.path.BSPComp)
		}
	})
	if rep.BSPCompCrit < 1e7 {
		t.Errorf("critical-path comp %g", rep.BSPCompCrit)
	}
}

func TestProfiledLapackWrappers(t *testing.T) {
	runProfiled(t, 1, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		n := 8
		r := sim.NewRNG(3)
		g := make([]float64, n*n)
		for i := range g {
			g[i] = r.Float64()
		}
		a := make([]float64, n*n)
		p.Gemm(false, true, n, n, n, 1, g, n, g, n, 0, a, n)
		for i := 0; i < n; i++ {
			a[i+i*n] += float64(n)
		}
		if err := p.Potrf(n, a, n); err != nil {
			t.Fatalf("profiled potrf: %v", err)
		}
		if err := p.Trtri(n, a, n); err != nil {
			t.Fatalf("profiled trtri: %v", err)
		}
		if p.Samples(CompKey("gemm", n, n, n, 2)) != 1 {
			t.Error("gemm kernel not recorded under expected signature")
		}
		if p.Samples(CompKey("potrf", n, 0, 0, 0)) != 1 {
			t.Error("potrf kernel not recorded")
		}
	})
}

func TestKernelSignatureDistinguishesSizes(t *testing.T) {
	runProfiled(t, 1, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		p.Kernel("gemm", 8, 8, 8, 0, 1e3, func() {})
		p.Kernel("gemm", 16, 16, 16, 0, 8e3, func() {})
		if p.KernelCount() != 2 {
			t.Errorf("kernel count = %d, want 2 distinct signatures", p.KernelCount())
		}
	})
}

func TestReportDeterministic(t *testing.T) {
	run := func() Report {
		return runProfiled(t, 4, 0.08, Options{Policy: Online, Eps: 0.2}, func(p *Profiler, cc *Comm) {
			buf := make([]float64, 256)
			for i := 0; i < 30; i++ {
				cc.Bcast(i%4, buf)
				p.Kernel("w", 8, 8, 8, 0, 5e4, func() {})
				cc.Allreduce(buf[:16], make([]float64, 16), mpi.OpSum)
			}
		})
	}
	a, b := run(), run()
	if a.Predicted != b.Predicted || a.Wall != b.Wall || a.Executed != b.Executed {
		t.Errorf("reports differ across identical runs: %+v vs %+v", a, b)
	}
}
