// Package figures regenerates the data series of every figure in the
// paper's evaluation (Figures 3, 4, and 5): BSP cost trade-offs and
// execution-time breakdowns per configuration (Figure 3), and tuning time,
// kernel time, and prediction error versus confidence tolerance for each
// selective-execution policy (Figures 4 and 5). Series are printed as plain
// text tables, one row per x-axis point, matching the rows/series the paper
// plots.
package figures

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/sim"
	"critter/internal/workload"
)

// StudiesFor resolves workload names through the workload registry (nil reg
// means the process-global default) and builds each study at the named
// scale preset, resolved against each workload's own declared presets.
// This is the only path from a name to a runnable study in the figures
// layer: figure generation sees exactly what the registry serves.
func StudiesFor(reg *workload.Registry, names []string, scaleName string) ([]autotune.Study, error) {
	studies := make([]autotune.Study, len(names))
	for i, name := range names {
		st, err := workload.ResolveStudy(reg, name, scaleName)
		if err != nil {
			return nil, err
		}
		studies[i] = st
	}
	return studies, nil
}

// Fig3 holds one study's full-execution reports: the per-configuration BSP
// costs and time breakdowns of Figure 3's panels.
type Fig3 struct {
	Study   autotune.Study
	Reports []critter.Report
}

// RunFig3 executes every configuration once with full kernel execution.
func RunFig3(study autotune.Study, machine sim.Machine, seed uint64) (*Fig3, error) {
	reports, err := autotune.FullOnly(context.Background(), study, machine, seed, 0)
	if err != nil {
		return nil, err
	}
	return &Fig3{Study: study, Reports: reports}, nil
}

// RunFig3All executes every study's full-execution pass in study order,
// each parallelized across its configurations on a bounded pool (workers;
// 0 = GOMAXPROCS) — the single pool bound covers the whole run, with no
// nested pools. Cancelling ctx skips the remaining configurations and
// studies. progress, when non-nil, is called after each study completes.
func RunFig3All(ctx context.Context, studies []autotune.Study, machine sim.Machine, seed uint64, workers int, progress func(study string, done, total int)) ([]*Fig3, error) {
	out := make([]*Fig3, len(studies))
	errs := make([]error, len(studies))
	for i, st := range studies {
		reports, err := autotune.FullOnly(ctx, st, machine, seed, workers)
		if err != nil {
			errs[i] = err
		} else {
			out[i] = &Fig3{Study: st, Reports: reports}
		}
		if progress != nil {
			progress(st.Name, i+1, len(studies))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// Print emits the three panel groups for this study: BSP communication vs
// synchronization (panels a-d), BSP computation vs synchronization (e-h),
// and the execution/computation/communication time breakdown (i-l).
func (f *Fig3) Print(w io.Writer) {
	fmt.Fprintf(w, "# Figure 3: %s (%d configurations)\n", f.Study.Name, f.Study.Size())
	fmt.Fprintf(w, "# BSP cost trade-offs; crit = critical path, vol = volumetric average\n")
	fmt.Fprintf(w, "%-4s %-22s %14s %14s %12s %12s %14s %14s\n",
		"cfg", "params", "comm-crit", "comm-vol", "sync-crit", "sync-vol", "comp-crit", "comp-vol")
	for v, r := range f.Reports {
		fmt.Fprintf(w, "%-4d %-22s %14.4g %14.4g %12.4g %12.4g %14.4g %14.4g\n",
			v, f.Study.Label(v),
			r.BSPCommCrit, r.BSPCommVol, r.BSPSyncCrit, r.BSPSyncVol, r.BSPCompCrit, r.BSPCompVol)
	}
	fmt.Fprintf(w, "# execution time breakdown (seconds, virtual)\n")
	fmt.Fprintf(w, "%-4s %-22s %12s %12s %12s\n", "cfg", "params", "execution", "computation", "communication")
	for v, r := range f.Reports {
		fmt.Fprintf(w, "%-4d %-22s %12.5g %12.5g %12.5g\n",
			v, f.Study.Label(v), r.Wall, r.PredictedComp, r.PredictedComm)
	}
}

// Tuning holds the sweeps behind Figures 4 and 5 for one study.
type Tuning struct {
	Study autotune.Study
	Res   *autotune.Result
}

// RunTuning sweeps the study over the given tolerances for every policy the
// paper evaluates on it, through the concurrent executor at its default
// worker count and the exhaustive strategy.
func RunTuning(study autotune.Study, machine sim.Machine, seed uint64, epsList []float64) (*Tuning, error) {
	tns, err := RunTuningSuite(context.Background(), []autotune.Study{study}, machine, seed, epsList, autotune.Exhaustive{}, 0, nil)
	if err != nil {
		return nil, err
	}
	return tns[0], nil
}

// RunTuningSuite sweeps several studies concurrently through one shared
// pool of Tuners: every (study, policy, eps) cell shares a single pool of
// workers (0 = GOMAXPROCS) and, when progress is non-nil, one suite-wide
// progress stream. strategy selects which configurations each sweep
// evaluates (nil = exhaustive, the paper's protocol); cancelling ctx stops
// the remaining sweeps promptly. The returned slice is aligned with
// studies; any study failure aborts the whole suite with the joined
// per-study errors.
func RunTuningSuite(ctx context.Context, studies []autotune.Study, machine sim.Machine, seed uint64, epsList []float64, strategy autotune.Strategy, workers int, progress func(autotune.Progress)) ([]*Tuning, error) {
	tuners := make([]autotune.Tuner, len(studies))
	for i, st := range studies {
		tuners[i] = autotune.Tuner{
			Study:    st,
			EpsList:  epsList,
			Machine:  machine,
			Seed:     seed,
			Strategy: strategy,
		}
	}
	results, errs := autotune.RunTuners(ctx, tuners, workers, progress)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	tns := make([]*Tuning, len(studies))
	for i, res := range results {
		tns[i] = &Tuning{Study: studies[i], Res: res}
	}
	return tns, nil
}

func (t *Tuning) header(w io.Writer, what string) {
	fmt.Fprintf(w, "# %s: %s\n", what, t.Study.Name)
	fmt.Fprintf(w, "%-10s", "log2(eps)")
	for _, pol := range t.Res.Policies {
		fmt.Fprintf(w, " %14s", pol)
	}
	fmt.Fprintf(w, " %14s\n", "full-exec")
}

// PrintSearchTime emits exhaustive-search execution time versus tolerance
// per policy (Figures 4a, 4b, 5a, 5b). The final column is the
// full-execution baseline (the red line).
func (t *Tuning) PrintSearchTime(w io.Writer) {
	t.header(w, "exhaustive search exec-time (s)")
	for ei, eps := range t.Res.EpsList {
		fmt.Fprintf(w, "%-10.0f", math.Log2(eps))
		var full float64
		for pi := range t.Res.Policies {
			sw := t.Res.Sweeps[pi][ei]
			fmt.Fprintf(w, " %14.5g", sw.TuneWall)
			full = sw.FullWall
		}
		fmt.Fprintf(w, " %14.5g\n", full)
	}
}

// PrintKernelTime emits the executed-kernel time (max over ranks, summed
// over configurations) versus tolerance (Figures 4c, 5c).
func (t *Tuning) PrintKernelTime(w io.Writer) {
	t.header(w, "exhaustive search kernel exec-time (s)")
	for ei, eps := range t.Res.EpsList {
		fmt.Fprintf(w, "%-10.0f", math.Log2(eps))
		var fullKernel float64
		for pi := range t.Res.Policies {
			sw := t.Res.Sweeps[pi][ei]
			fmt.Fprintf(w, " %14.5g", sw.KernelTime)
			if sum := sumFullKernel(sw); sum > fullKernel {
				fullKernel = sum
			}
		}
		fmt.Fprintf(w, " %14.5g\n", fullKernel)
	}
}

func sumFullKernel(sw autotune.SweepResult) float64 {
	s := 0.0
	for _, cr := range sw.Configs {
		s += cr.Full.KernelTime
	}
	return s
}

// PrintExecErr emits the mean log execution-time prediction error versus
// tolerance (Figures 4e, 4f, 5e, 5f). The ideal scaling is the diagonal
// log2(err) = log2(eps).
func (t *Tuning) PrintExecErr(w io.Writer) {
	t.header(w, "mean log2 exec-time prediction error")
	for ei, eps := range t.Res.EpsList {
		fmt.Fprintf(w, "%-10.0f", math.Log2(eps))
		for pi := range t.Res.Policies {
			fmt.Fprintf(w, " %14.3f", t.Res.Sweeps[pi][ei].MeanLogExecErr)
		}
		fmt.Fprintf(w, " %14s\n", "-")
	}
}

// PrintCompErr emits the mean log computation-time prediction error versus
// tolerance (Figures 4d, 5d).
func (t *Tuning) PrintCompErr(w io.Writer) {
	t.header(w, "mean log2 comp-time prediction error")
	for ei, eps := range t.Res.EpsList {
		fmt.Fprintf(w, "%-10.0f", math.Log2(eps))
		for pi := range t.Res.Policies {
			fmt.Fprintf(w, " %14.3f", t.Res.Sweeps[pi][ei].MeanLogCompErr)
		}
		fmt.Fprintf(w, " %14s\n", "-")
	}
}

// PrintPerConfigErr emits per-configuration prediction error (%) at the
// selected tolerance indices for one policy (Figures 4g, 4h, 5g, 5h, which
// evaluate online frequency propagation).
func (t *Tuning) PrintPerConfigErr(w io.Writer, pol critter.Policy, epsIdx []int, comp bool) {
	pi := t.policyIndex(pol)
	if pi < 0 {
		fmt.Fprintf(w, "# policy %s not part of this study\n", pol)
		return
	}
	kind := "exec-time"
	if comp {
		kind = "comp-time kernel"
	}
	fmt.Fprintf(w, "# per-config %s prediction error (%%), policy %s: %s\n", kind, pol, t.Study.Name)
	fmt.Fprintf(w, "%-4s %-22s", "cfg", "params")
	for _, ei := range epsIdx {
		fmt.Fprintf(w, " eps=2^%-7.0f", math.Log2(t.Res.EpsList[ei]))
	}
	fmt.Fprintln(w)
	// Index by configuration: under a subset strategy a sweep's Configs
	// cover only the evaluated part of the space (the last evaluation
	// wins when a rung strategy revisits a configuration).
	byConfig := make([]map[int]autotune.ConfigResult, len(epsIdx))
	for i, ei := range epsIdx {
		byConfig[i] = make(map[int]autotune.ConfigResult)
		for _, cr := range t.Res.Sweeps[pi][ei].Configs {
			byConfig[i][cr.Config] = cr
		}
	}
	for v := 0; v < t.Study.Size(); v++ {
		fmt.Fprintf(w, "%-4d %-22s", v, t.Study.Label(v))
		for i := range epsIdx {
			cr, ok := byConfig[i][v]
			if !ok {
				fmt.Fprintf(w, " %11s", "-")
				continue
			}
			e := cr.ExecErr
			if comp {
				e = cr.CompErr
			}
			fmt.Fprintf(w, " %11.3f", 100*e)
		}
		fmt.Fprintln(w)
	}
}

// PrintSelection emits the configuration-selection quality claim of Section
// VI-C: per policy and tolerance, the selected configuration and its full
// execution time relative to the optimum.
func (t *Tuning) PrintSelection(w io.Writer) {
	fmt.Fprintf(w, "# configuration selection quality: %s\n", t.Study.Name)
	fmt.Fprintf(w, "%-12s %-10s %-8s %-8s %10s\n", "policy", "log2(eps)", "selected", "optimal", "rel-perf")
	for pi, pol := range t.Res.Policies {
		for ei, eps := range t.Res.EpsList {
			sw := t.Res.Sweeps[pi][ei]
			sel, opt := 0.0, 0.0
			for _, cr := range sw.Configs {
				if cr.Config == sw.Selected {
					sel = cr.Full.Wall
				}
				if cr.Config == sw.Optimal {
					opt = cr.Full.Wall
				}
			}
			rel := opt / sel
			fmt.Fprintf(w, "%-12s %-10.0f %-8d %-8d %9.1f%%\n",
				pol, math.Log2(eps), sw.Selected, sw.Optimal, 100*rel)
		}
	}
}

func (t *Tuning) policyIndex(pol critter.Policy) int {
	for i, p := range t.Res.Policies {
		if p == pol {
			return i
		}
	}
	return -1
}

// PrintAll emits every panel this study contributes to its figure.
func (t *Tuning) PrintAll(w io.Writer) {
	t.PrintSearchTime(w)
	t.PrintKernelTime(w)
	t.PrintExecErr(w)
	t.PrintCompErr(w)
	n := len(t.Res.EpsList)
	idx := []int{}
	for i := 2; i <= 5 && i < n; i++ {
		idx = append(idx, i)
	}
	if len(idx) > 0 {
		t.PrintPerConfigErr(w, critter.Online, idx, false)
		t.PrintPerConfigErr(w, critter.Online, idx, true)
	}
	t.PrintSelection(w)
}
