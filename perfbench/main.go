// Command perfbench is the repository's benchmark: it runs one workload for
// a fixed number of seconds, checks the program's outputs, and prints one
// JSON result line. See README.md for the workloads, the metrics and how to
// read the per-layer report.
//
//	bash perfbench/run.sh --workload tune-candmc --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// the benchmark's own tracing off. With --trace 1 it carries the per-layer
// metrics of a separate traced run, and the spans of that run are written
// to .bench_out/ and summarised, with self time, on standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	_ "critter/internal/workload" // installs the built-in workloads
)

// outDir holds run outputs (span files, temporary stores), relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_out"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run describes one invocation.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(run) (*result, error){
	"tune-candmc":     runTuneCandmc,
	"tune-slate-chol": runTuneSlateChol,
	"serve-mix":       runServeMix,
}

func main() {
	var r run
	var seed uint64
	var seconds, trace int
	flag.StringVar(&r.workload, "workload", "", "workload: tune-candmc, tune-slate-chol or serve-mix")
	flag.Uint64Var(&seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&seconds, "seconds", 30, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	runWorkload, ok := workloads[r.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", r.workload, seconds, trace)
		os.Exit(2)
	}
	r.seed, r.seconds, r.trace = seed, float64(seconds), trace == 1
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := runWorkload(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// checks collects output-check failures; the run is correct when none
// were recorded.
type checks struct{ failures []string }

func (c *checks) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(c.failures) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	c.failures = append(c.failures, msg)
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

// mix derives the k-th input seed from the benchmark seed (splitmix64), so
// that neighbouring benchmark seeds share no derived input.
func mix(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the convention of numpy's default), or 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memDelta is the allocation and GC activity between two snapshots.
type memDelta struct {
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(start runtime.MemStats) memDelta {
	end := readMem()
	return memDelta{
		allocBytes: end.TotalAlloc - start.TotalAlloc,
		mallocs:    end.Mallocs - start.Mallocs,
		gcCycles:   end.NumGC - start.NumGC,
	}
}
