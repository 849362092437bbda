// Package experiments is the evaluation harness: it runs every scheme on
// every workload and regenerates each table and figure of the paper's
// evaluation section (Figs. 7–14 plus the §6.2.2 soundness study). See
// EXPERIMENTS.md for the paper-vs-measured record.
package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/anserve"
	"repro/internal/baseline"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/rules"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Scheme names one configuration of one tool.
type Scheme string

// The evaluated schemes.
const (
	Native          Scheme = "native"
	NullClient      Scheme = "null-client"
	JASanHybrid     Scheme = "jasan-hybrid"
	JASanHybridBase Scheme = "jasan-hybrid-base" // no liveness optimisation
	JASanSCEV       Scheme = "jasan-scev"        // hybrid + SCEV check hoisting (ablation)
	JASanElide      Scheme = "jasan-elide"       // hybrid + VSA proof-carrying check elision
	JASanDyn        Scheme = "jasan-dyn"
	Valgrind        Scheme = "valgrind"
	Retrowrite      Scheme = "retrowrite"
	JCFIHybrid      Scheme = "jcfi-hybrid"
	JCFIForward     Scheme = "jcfi-forward" // forward-edge CFI only
	JCFINarrow      Scheme = "jcfi-narrow"  // hybrid + VSA indirect-target narrowing
	JCFIDyn         Scheme = "jcfi-dyn"
	Lockdown        Scheme = "lockdown"
	LockdownWeak    Scheme = "lockdown-weak"
	BinCFI          Scheme = "bincfi"
	JMSanHybrid     Scheme = "jmsan-hybrid"
	JMSanElide      Scheme = "jmsan-elide" // hybrid + VSA def-init check elision
	JMSanDyn        Scheme = "jmsan-dyn"
	ValgrindDef     Scheme = "valgrind-def" // memcheck model with validity bits
	JTSanHybrid     Scheme = "jtsan-hybrid"
	JTSanElide      Scheme = "jtsan-elide" // hybrid + VSA no-escape check elision
	JTSanDyn        Scheme = "jtsan-dyn"
	ValgrindTemp    Scheme = "valgrind-temporal" // memcheck model with generation tags
	// Comprehensive is the combined jasan+jmsan+jtsan+jcfi configuration:
	// all four Janitizer tools composed over one shared translation of
	// every block (core.MultiTool).
	Comprehensive Scheme = "comprehensive"
)

// Backend identifies the execution backend a measurement ran under: the
// dynamic binary modifier (the default), the static AOT rewriter, or the
// hybrid that runs statically rewritten code and fails over to the DBM.
type Backend string

// The execution backends of the bake-off.
const (
	BackendDynamic Backend = "dynamic"
	BackendStatic  Backend = "static"
	BackendHybrid  Backend = "hybrid"
)

// Result is one (benchmark, scheme, backend) measurement.
type Result struct {
	Benchmark string
	Scheme    Scheme
	// Backend is the execution backend the measurement ran under.
	Backend Backend
	// Failed marks configurations the scheme cannot run (the x marks of
	// the figures); Reason explains why.
	Failed bool
	Reason string

	Cycles       uint64
	NativeCycles uint64
	Slowdown     float64
	ExitStatus   int64
	// Instrs is the retired instruction count of the instrumented run —
	// the elision study's metric (checks removed shrink the dynamic
	// instruction stream even when cycle weights hide it).
	Instrs uint64

	Violations int
	Coverage   core.CoverageStats
	// Output is the program's captured stdout — the backend parity tests
	// demand it byte-identical across dynamic, static and hybrid runs.
	Output []byte
	// ElidedChecks counts MEM_ACCESS_SAFE rules with a VSA-backed
	// provenance (SafeFrame/SafeGlobal/SafeDedup/SafeDefInit) across the
	// program's static rule files; NarrowedBranches counts CFI_JUMP_NARROW
	// rules.
	ElidedChecks     int
	NarrowedBranches int
	// DAIR is the dynamic average indirect-target reduction (CFI schemes).
	DAIR float64
}

// maxInstrs bounds each run.
const maxInstrs = 400_000_000

// service is the evaluation's shared analysis service: one content-
// addressed rule cache for the whole process, so a module analyzed for one
// (workload, scheme) cell — above all libj, which every workload links — is
// reused by every later cell with the same tool configuration, within a
// figure and across figures of a `jexp all` run.
var service = anserve.New(anserve.Config{})

// AnalysisStats exposes the shared service's cache/scheduler counters
// (printed by jexp -stats).
func AnalysisStats() anserve.Stats { return service.Stats() }

// runNative measures the uninstrumented baseline.
func runNative(w *spec.Workload, pic bool) (*Result, error) {
	main, reg, err := w.Build(pic)
	if err != nil {
		return nil, err
	}
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = maxInstrs
	var out bytes.Buffer
	m.Out = &out
	proc := loader.NewProcess(m, reg)
	lm, err := proc.LoadProgram(main)
	if err != nil {
		return nil, err
	}
	if err := m.Run(lm.RuntimeAddr(main.Entry)); err != nil {
		return nil, err
	}
	return &Result{Benchmark: w.Name, Scheme: Native, Backend: BackendDynamic,
		Cycles: m.Cycles, NativeCycles: m.Cycles, Slowdown: 1,
		ExitStatus: m.ExitStatus, Instrs: m.Instrs, Output: out.Bytes()}, nil
}

// Run executes one (workload, scheme) configuration. A nil error with
// Result.Failed set means the scheme cannot handle the benchmark — the
// figures' x marks; hard errors are real harness problems.
func Run(w *spec.Workload, scheme Scheme) (*Result, error) {
	return runWith(w, scheme, nil, nil)
}

// RunProfiled is Run with per-rule cost attribution: the DBM charges every
// executed instruction's cycles to its cost center, decomposing the
// measured overhead into shadow-update/check/elided/dispatch components.
// The profile never perturbs the cycle model — Run and RunProfiled measure
// identical Cycles/Instrs.
func RunProfiled(w *spec.Workload, scheme Scheme) (*Result, *telemetry.Profile, error) {
	prof := &telemetry.Profile{}
	res, err := runWith(w, scheme, prof, nil)
	return res, prof, err
}

// obsSink wires the full observability stack into a run: a span per
// execution (exported through tr), post-run structured-diagnostics
// collection into dlog, and a trace-exemplared duration observation into
// hist. All of it lives outside the VM's cycle model, so an observed run
// must measure identical Cycles/Instrs to a plain one — the invariant the
// Obs experiment gates.
type obsSink struct {
	tr   *telemetry.Tracer
	dlog *diag.Log
	hist *telemetry.Histogram
}

func runWith(w *spec.Workload, scheme Scheme, prof *telemetry.Profile, obs *obsSink) (*Result, error) {
	native, err := runNative(w, scheme == Retrowrite)
	if err != nil {
		return nil, fmt.Errorf("%s: native: %w", w.Name, err)
	}
	if scheme == Native {
		return native, nil
	}

	res := &Result{Benchmark: w.Name, Scheme: scheme, NativeCycles: native.Cycles}
	fail := func(reason string) (*Result, error) {
		res.Failed = true
		res.Reason = reason
		return res, nil
	}

	// Scheme applicability gates.
	switch scheme {
	case Retrowrite:
		if !w.Retrowritable() {
			return fail(fmt.Sprintf("retrowrite does not support %s input", w.Lang))
		}
	case Lockdown, LockdownWeak:
		if w.LockdownBroken {
			return fail("lockdown prototype fails on this benchmark (§6.2.1)")
		}
	}

	pic := scheme == Retrowrite
	main, reg, err := w.Build(pic)
	if err != nil {
		return nil, err
	}

	if scheme == BinCFI {
		// Rewriting-feasibility check over every static module.
		probe := baseline.NewBinCFI()
		mods, err := loader.LddClosure(main, reg)
		if err != nil {
			return nil, err
		}
		for _, mod := range mods {
			g, err := cfg.Build(mod)
			if err != nil {
				return nil, err
			}
			if err := probe.CheckInput(mod, g); err != nil {
				return fail(err.Error())
			}
		}
	}

	// Build the tool and decide whether a static stage runs.
	tool, static, err := NewTool(scheme)
	if err != nil {
		return nil, err
	}
	if rw, ok := tool.(*baseline.RetrowriteTool); ok {
		if err := rw.CheckInput(main); err != nil {
			return fail(err.Error())
		}
	}

	files := map[string]*rules.File{}
	if static {
		files, err = service.AnalyzeProgram(main, reg, tool)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: static analysis: %w", w.Name, scheme, err)
		}
	}

	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = maxInstrs
	var out bytes.Buffer
	m.Out = &out
	proc := loader.NewProcess(m, reg)
	rt := core.NewRuntime(m, proc, tool, files)
	if prof != nil {
		rt.DBM.Prof = prof
	}
	lm, err := proc.LoadProgram(main)
	if err != nil {
		return nil, err
	}
	var sp *telemetry.Span
	var started time.Time
	if obs != nil {
		sp = obs.tr.Start("exp.run",
			telemetry.String("benchmark", w.Name),
			telemetry.String("scheme", string(scheme)))
		started = time.Now()
	}
	if err := rt.Run(lm.RuntimeAddr(main.Entry)); err != nil {
		if sp != nil {
			sp.SetError(err.Error())
			sp.End()
		}
		return nil, fmt.Errorf("%s/%s: run: %w", w.Name, scheme, err)
	}
	if obs != nil {
		sp.AddEvent("run-complete",
			telemetry.Int("instrs", int64(m.Instrs)),
			telemetry.Int("cycles", int64(m.Cycles)))
		sp.End()
		diag.Collect(obs.dlog, tool, diag.NewProcessSymbolizer(proc), sp.Context())
		obs.hist.ObserveExemplar(time.Since(started).Seconds(), sp.TraceID())
	}
	if m.ExitStatus != native.ExitStatus {
		return nil, fmt.Errorf("%s/%s: semantics broken: exit %d, native %d",
			w.Name, scheme, m.ExitStatus, native.ExitStatus)
	}
	if !bytes.Equal(out.Bytes(), native.Output) {
		return nil, fmt.Errorf("%s/%s: semantics broken: output diverges from native",
			w.Name, scheme)
	}

	res.Backend = BackendDynamic
	res.Cycles = m.Cycles
	res.Slowdown = metrics.Slowdown(m.Cycles, native.Cycles)
	res.ExitStatus = m.ExitStatus
	res.Instrs = m.Instrs
	res.Output = out.Bytes()
	res.Coverage = rt.Coverage
	res.ElidedChecks, res.NarrowedBranches = countProofRules(files)

	res.Violations = core.CountViolations(tool)
	switch tt := tool.(type) {
	case interface{ DynamicAIR() float64 }: // JCFI, Lockdown
		res.DAIR = tt.DynamicAIR()
	case *baseline.BinCFITool:
		res.DAIR = tt.AIR()
	}
	return res, nil
}

// janitizerSchemes maps each Janitizer scheme to its internal/registry
// tool and whether its static analysis stage runs: a -dyn scheme is its
// tool with the static stage off.
var janitizerSchemes = map[Scheme]struct {
	tool   string
	static bool
}{
	NullClient:      {"none", false},
	JASanHybrid:     {"jasan", true},
	JASanHybridBase: {"jasan-base", true},
	JASanSCEV:       {"jasan-scev", true},
	JASanElide:      {"jasan-elide", true},
	JASanDyn:        {"jasan-base", false},
	JCFIHybrid:      {"jcfi", true},
	JCFIForward:     {"jcfi-forward", true},
	JCFINarrow:      {"jcfi-narrow", true},
	JCFIDyn:         {"jcfi", false},
	JMSanHybrid:     {"jmsan", true},
	JMSanElide:      {"jmsan-elide", true},
	JMSanDyn:        {"jmsan-base", false},
	JTSanHybrid:     {"jtsan", true},
	JTSanElide:      {"jtsan-elide", true},
	JTSanDyn:        {"jtsan-base", false},
	Comprehensive:   {"comprehensive", true},
}

// NewTool builds the scheme's tool and reports whether its static analysis
// stage runs. Each call returns a fresh instance — plan capture and the
// measured run must not share tool state.
func NewTool(scheme Scheme) (core.Tool, bool, error) {
	if s, ok := janitizerSchemes[scheme]; ok {
		return registry.MustNew(s.tool), s.static, nil
	}
	switch scheme {
	case Valgrind:
		return baseline.NewValgrind(), false, nil
	case ValgrindDef:
		return baseline.NewValgrindDef(), false, nil
	case ValgrindTemp:
		return baseline.NewValgrindTemporal(), false, nil
	case Retrowrite:
		return baseline.NewRetrowrite(), true, nil
	case Lockdown:
		return baseline.NewLockdown(baseline.LockdownConfig{}), false, nil
	case LockdownWeak:
		return baseline.NewLockdown(baseline.LockdownConfig{Weak: true}), false, nil
	case BinCFI:
		return baseline.NewBinCFI(), true, nil
	}
	return nil, false, fmt.Errorf("unknown scheme %q", scheme)
}

// HybridScheme returns the scheme that runs registry tool name with its
// static stage on, if there is one.
func HybridScheme(name string) (Scheme, bool) {
	for s, st := range janitizerSchemes {
		if st.tool == name && st.static {
			return s, true
		}
	}
	return "", false
}

// countProofRules tallies the VSA-backed decisions across a program's
// static rule files: MEM_ACCESS_SAFE rules whose provenance word marks a
// frame/global/dedup proof, and CFI_JUMP_NARROW rules.
func countProofRules(files map[string]*rules.File) (elided, narrowed int) {
	for _, f := range files {
		for _, r := range f.Rules {
			switch r.ID {
			case rules.MemAccessSafe:
				switch r.Data[1] {
				case rules.SafeFrame, rules.SafeGlobal, rules.SafeDedup,
					rules.SafeDefInit, rules.SafeNoEscape:
					elided++
				}
			case rules.CFIJumpNarrow:
				narrowed++
			}
		}
	}
	return elided, narrowed
}
