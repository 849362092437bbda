package experiments

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rewrite"
	"repro/internal/spec"
)

// RunBackend executes one (workload, scheme, backend) cell of the bake-off.
// BackendDynamic delegates to Run; the static and hybrid backends capture
// the scheme's rewrite plans through the shared analysis service (cached,
// keyed per mode), bake them into the program's modules ahead of time, and
// execute the result natively (static) or under the failing-over dispatcher
// (hybrid). Exit status and output are checked against the uninstrumented
// native run, exactly like the dynamic path.
func RunBackend(w *spec.Workload, scheme Scheme, backend Backend) (*Result, error) {
	if backend == BackendDynamic {
		return Run(w, scheme)
	}
	if backend != BackendStatic && backend != BackendHybrid {
		return nil, fmt.Errorf("unknown backend %q", backend)
	}

	native, err := runNative(w, false)
	if err != nil {
		return nil, fmt.Errorf("%s: native: %w", w.Name, err)
	}
	res := &Result{Benchmark: w.Name, Scheme: scheme, Backend: backend,
		NativeCycles: native.Cycles}

	tool, static, err := NewTool(scheme)
	if err != nil {
		return nil, err
	}
	if !static {
		res.Failed = true
		res.Reason = "scheme has no static stage to capture rewrite plans from"
		return res, nil
	}
	if _, ok := tool.(core.PlannedTool); !ok {
		res.Failed = true
		res.Reason = "tool exposes no per-instruction plans"
		return res, nil
	}

	main, reg, err := w.Build(false)
	if err != nil {
		return nil, err
	}
	files, err := service.AnalyzeProgram(main, reg, tool)
	if err != nil {
		return nil, fmt.Errorf("%s/%s/%s: static analysis: %w", w.Name, scheme, backend, err)
	}
	freshTool := func() core.Tool {
		t, _, _ := NewTool(scheme)
		return t
	}
	plans, err := service.RewritePlans(main, reg, files, freshTool, string(backend))
	if err != nil {
		return nil, fmt.Errorf("%s/%s/%s: plan capture: %w", w.Name, scheme, backend, err)
	}

	var out bytes.Buffer
	opts := rewrite.Options{MaxInstrs: maxInstrs, Out: &out}
	var rr *rewrite.RunResult
	if backend == BackendStatic {
		rr, err = rewrite.RunStatic(main, reg, tool, files, plans, opts)
	} else {
		rr, err = rewrite.RunHybrid(main, reg, tool, files, plans, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("%s/%s/%s: run: %w", w.Name, scheme, backend, err)
	}
	m := rr.Machine
	if m.ExitStatus != native.ExitStatus {
		return nil, fmt.Errorf("%s/%s/%s: semantics broken: exit %d, native %d",
			w.Name, scheme, backend, m.ExitStatus, native.ExitStatus)
	}
	if !bytes.Equal(out.Bytes(), native.Output) {
		return nil, fmt.Errorf("%s/%s/%s: semantics broken: output diverges from native",
			w.Name, scheme, backend)
	}

	res.Cycles = m.Cycles
	res.Slowdown = metrics.Slowdown(m.Cycles, native.Cycles)
	res.ExitStatus = m.ExitStatus
	res.Instrs = m.Instrs
	res.Output = out.Bytes()
	res.Coverage = rr.Runtime.Coverage
	res.ElidedChecks, res.NarrowedBranches = countProofRules(files)
	res.Violations = core.CountViolations(tool)
	return res, nil
}

// rewriteSchemes are the bake-off's schemes: every Janitizer configuration
// with a static stage whose plans both AOT backends can consume.
var rewriteSchemes = []Scheme{JASanHybrid, JCFIHybrid, JMSanHybrid, Comprehensive}

// rewriteBackends is the bake-off's backend axis.
var rewriteBackends = []Backend{BackendDynamic, BackendStatic, BackendHybrid}

// BenchRewrite runs the three-way bake-off — every rewrite scheme under the
// dynamic, static and hybrid backends — and folds each (scheme, backend)
// cell into one geomean row: the BENCH_REWRITE.json artifact.
func BenchRewrite(scale int, names ...string) ([]BenchRow, error) {
	workloads := workloadSet(scale, names...)
	sort.Slice(workloads, func(i, j int) bool {
		return workloads[i].Name < workloads[j].Name
	})
	ns, nb := len(rewriteSchemes), len(rewriteBackends)
	results := make([]*Result, len(workloads)*ns*nb)
	errs := make([]error, len(results))
	runJobs(len(results), func(i int) {
		w := workloads[i/(ns*nb)]
		s := rewriteSchemes[(i/nb)%ns]
		b := rewriteBackends[i%nb]
		results[i], errs[i] = RunBackend(w, s, b)
	})

	var rows []BenchRow
	for si, s := range rewriteSchemes {
		for bi, b := range rewriteBackends {
			var slowdowns []float64
			for wi := range workloads {
				idx := wi*ns*nb + si*nb + bi
				res, err := results[idx], errs[idx]
				if err != nil {
					return nil, err
				}
				if res.Failed {
					continue
				}
				slowdowns = append(slowdowns, res.Slowdown)
			}
			rows = append(rows, BenchRow{
				Scheme:          s,
				Backend:         b,
				GeomeanSlowdown: metrics.Geomean(slowdowns),
				Benchmarks:      len(slowdowns),
			})
		}
	}
	return rows, nil
}
