package main

// Layer probes: the mpi collectives and point-to-point path at the tune
// workloads' world sizes, and the blas kernels at slate-chol's default tile
// sizes. Each reports time per operation and allocations per operation.

import (
	"fmt"
	"math"
	"time"

	"critter/internal/autotune"
	"critter/internal/blas"
	"critter/internal/mpi"
	"critter/internal/sim"
)

// probeOp measures one operation: body runs ops operations, and is timed
// at two operation counts so the fixed set-up cost (world creation, buffer
// allocation) cancels out of both the time and the allocation count.
func probeOp(ops int, body func(ops int) error) (usPerOp, allocsPerOp float64, err error) {
	measure := func(n int) (time.Duration, uint64, error) {
		mem := readMem()
		start := time.Now()
		err := body(n)
		return time.Since(start), memSince(mem).mallocs, err
	}
	if _, _, err := measure(ops / 10); err != nil { // warm-up
		return 0, 0, err
	}
	t1, a1, err := measure(ops)
	if err != nil {
		return 0, 0, err
	}
	t2, a2, err := measure(2 * ops)
	if err != nil {
		return 0, 0, err
	}
	us := float64((t2 - t1).Nanoseconds()) / 1e3 / float64(ops)
	allocs := (float64(a2) - float64(a1)) / float64(ops)
	return us, math.Round(allocs*100) / 100, nil
}

func allreduceBody(ranks int, seed uint64) func(int) error {
	return func(ops int) error {
		return mpi.NewWorld(ranks, sim.DefaultMachine(), seed).Run(func(c *mpi.Comm) {
			in, out := make([]float64, 256), make([]float64, 256)
			for range ops {
				c.Allreduce(in, out, mpi.OpSum)
			}
		})
	}
}

func pingPongBody(seed uint64) func(int) error {
	return func(ops int) error {
		return mpi.NewWorld(2, sim.DefaultMachine(), seed).Run(func(c *mpi.Comm) {
			buf := make([]float64, 128)
			for range ops {
				if c.Rank() == 0 {
					c.Send(1, 0, buf)
					c.Recv(1, 1, buf)
				} else {
					c.Recv(0, 0, buf)
					c.Send(0, 1, buf)
				}
			}
		})
	}
}

// blasProbe times gemm (C += A*B) and syrk (C += A*A^T, lower) on nb x nb
// tiles at every default slate-chol tile size, reps times each, and
// returns GFLOP/s from the kernels' computed flop counts plus allocations
// per call.
func blasProbe(reps int) (gemmGF, gemmAllocs, syrkGF, syrkAllocs float64) {
	nbs := autotune.DefaultScale().SlateCholNB
	run := func(kernel func(nb int, a, b, c []float64), flops func(nb int) float64) (float64, float64) {
		var total float64
		var elapsed time.Duration
		var mallocs uint64
		calls := 0
		for _, nb := range nbs {
			a, b, c := tile(nb, 1), tile(nb, 2), tile(nb, 3)
			mem := readMem()
			start := time.Now()
			for range reps {
				kernel(nb, a, b, c)
			}
			elapsed += time.Since(start)
			mallocs += memSince(mem).mallocs
			total += float64(reps) * flops(nb)
			calls += reps
		}
		return total / elapsed.Seconds() / 1e9, float64(mallocs) / float64(calls)
	}
	gemmGF, gemmAllocs = run(func(nb int, a, b, c []float64) {
		blas.Dgemm(false, false, nb, nb, nb, 1, a, nb, b, nb, 1, c, nb)
	}, func(nb int) float64 { return 2 * float64(nb) * float64(nb) * float64(nb) })
	syrkGF, syrkAllocs = run(func(nb int, a, _, c []float64) {
		blas.Dsyrk(blas.Lower, false, nb, nb, -1, a, nb, 1, c, nb)
	}, func(nb int) float64 { return float64(nb) * float64(nb+1) * float64(nb) })
	return gemmGF, gemmAllocs, syrkGF, syrkAllocs
}

// tile returns an nb x nb tile of small deterministic values.
func tile(nb int, salt uint64) []float64 {
	t := make([]float64, nb*nb)
	for i := range t {
		t[i] = float64(mix(salt, uint64(i))%1000)/1000 - 0.5
	}
	return t
}

// layerProbes runs every probe and adds its metrics to m.
func layerProbes(m map[string]metric, seed uint64) error {
	probes := []struct {
		name string
		ops  int
		body func(int) error
	}{
		{"mpi.allreduce8", 2000, allreduceBody(8, seed)},
		{"mpi.pingpong", 20000, pingPongBody(seed)},
		{"mpi.allreduce64", 200, allreduceBody(64, seed)},
	}
	for _, p := range probes {
		us, allocs, err := probeOp(p.ops, p.body)
		if err != nil {
			return fmt.Errorf("%s probe: %w", p.name, err)
		}
		m[p.name+"_us"] = metric{us, "us"}
		m[p.name+"_allocs"] = metric{allocs, "count"}
	}
	gemm, gemmAllocs, syrk, syrkAllocs := blasProbe(20)
	m["blas.gemm_gflops"] = metric{gemm, "GFLOP/s"}
	m["blas.gemm_allocs"] = metric{gemmAllocs, "count"}
	m["blas.syrk_gflops"] = metric{syrk, "GFLOP/s"}
	m["blas.syrk_allocs"] = metric{syrkAllocs, "count"}
	return nil
}
