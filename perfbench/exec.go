package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/anserve"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/diag"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// maxInstrs bounds every run, as the figure harness does.
const maxInstrs = 400_000_000

// execProg is one built spec program.
type execProg struct {
	name string
	main *obj.Module
	reg  loader.Registry
}

// runSig is everything about a run that must repeat exactly: the exit
// status and output, and every deterministic counter of the machine and
// the dynamic modifier.
type runSig struct {
	exit           int64
	out            string
	instrs, cycles uint64
	dbm            dbm.Stats
	cov            core.CoverageStats
}

// execInst is the exec workload: per program, one native run and one run
// under each of the six hybrid schemes, with rules served warm from an
// analysis service filled at set-up.
type execInst struct {
	tally
	progs []*execProg
	svc   *anserve.Service
	sigs  map[string]runSig             // "prog/scheme" -> first run's signature
	prof  map[string]*telemetry.Profile // prog -> comprehensive cost centers
}

func setupExec(seed int64, cc *ccTimer) (instance, error) {
	e := &execInst{
		svc:  anserve.New(anserve.Config{Workers: 2}),
		sigs: map[string]runSig{},
		prof: map[string]*telemetry.Profile{},
	}
	for _, name := range execDraw(seed) {
		w := spec.ByName(name)
		if w == nil {
			return nil, fmt.Errorf("exec: no spec program %q", name)
		}
		main, reg, err := cc.build(w)
		if err != nil {
			return nil, err
		}
		p := &execProg{name: name, main: main, reg: reg}
		for _, s := range schemes {
			if !s.static {
				continue
			}
			if _, err := e.svc.AnalyzeProgram(main, reg, s.tool()); err != nil {
				return nil, fmt.Errorf("exec: %s/%s: analysis: %w", name, s.name, err)
			}
		}
		e.progs = append(e.progs, p)
	}
	return e, nil
}

func (e *execInst) close() {}

// execAcc accumulates one phase's per-layer measurements.
type execAcc struct {
	nativeTime   time.Duration
	nativeInstrs uint64
	runTime      map[string]time.Duration
	runInstrs    map[string]uint64
	loadTime     time.Duration
	loads        int
	lookupTime   time.Duration
	lookups      int
	dbm          dbm.Stats
	// latMS holds each cell's latencies, one per round, keyed by
	// "prog/scheme" ("prog/native" for the native run).
	latMS map[string][]float64
}

func (e *execInst) run(d time.Duration, tr *Tracer) (*phase, error) {
	acc := &execAcc{runTime: map[string]time.Duration{}, runInstrs: map[string]uint64{},
		latMS: map[string][]float64{}}
	start := time.Now()
	rounds := 0
	var rates []float64
	for rounds == 0 || time.Since(start) < d {
		roundStart := time.Now()
		var appInstrs uint64
		for _, p := range e.progs {
			tr.NewTrace()
			native, err := e.runNative(p, tr, acc)
			if err != nil {
				return nil, err
			}
			for _, s := range schemes {
				tr.NewTrace()
				if err := e.runScheme(p, s, native, tr, acc); err != nil {
					return nil, err
				}
			}
			appInstrs += native.instrs * uint64(1+len(schemes))
		}
		rates = append(rates, float64(appInstrs)/1e6/time.Since(roundStart).Seconds())
		rounds++
	}
	// A cell's latency is the median of its rounds, as on analyze: most
	// runs last a few milliseconds, so a garbage-collection cycle or a
	// burst of contention from another tenant of the machine can double
	// one of them, and without the median such runs decide the tail.
	var latMS []float64
	for _, xs := range acc.latMS {
		latMS = append(latMS, median(xs))
	}
	ph := &phase{
		elapsed: time.Since(start),
		rates:   rates,
		lat:     summarize(latMS),
		units:   float64(rounds),
		actors:  1,
		layer:   map[string]float64{},
	}
	n := float64(rounds)
	ph.layer["vm.native_s"] = acc.nativeTime.Seconds() / n
	ph.layer["vm.native_mips"] = float64(acc.nativeInstrs) / 1e6 / acc.nativeTime.Seconds()
	for _, s := range schemes {
		ph.layer["core.run_s."+s.name] = acc.runTime[s.name].Seconds() / n
		ph.layer["dbm.mips."+s.name] = float64(acc.runInstrs[s.name]) / 1e6 / acc.runTime[s.name].Seconds()
	}
	ph.layer["dbm.blocks_built"] = float64(acc.dbm.BlocksBuilt) / n
	ph.layer["dbm.block_execs"] = float64(acc.dbm.BlockExecs) / n
	ph.layer["dbm.indirect_dispatch"] = float64(acc.dbm.IndirectDispatch) / n
	ph.layer["dbm.flushed_blocks"] = float64(acc.dbm.FlushedBlocks) / n
	ph.layer["dbm.cache_hit_ratio"] = float64(acc.dbm.CacheHits) / float64(acc.dbm.BlockExecs)
	ph.layer["loader.load_ms"] = acc.loadTime.Seconds() * 1000 / float64(acc.loads)
	ph.layer["anserve.warm_lookup_ms"] = acc.lookupTime.Seconds() * 1000 / float64(acc.lookups)
	return ph, nil
}

// newMachine returns a machine with the default services and run bound,
// writing program output to out.
func newMachine(out *bytes.Buffer) *vm.Machine {
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = maxInstrs
	m.Out = out
	return m
}

// load loads p into proc, timing the call.
func (e *execInst) load(p *execProg, proc *loader.Process, tr *Tracer, acc *execAcc) (*loader.LoadedModule, error) {
	start := time.Now()
	id := tr.Begin("loader", "loader.Process.LoadProgram")
	lm, err := proc.LoadProgram(p.main)
	tr.End(id)
	acc.loadTime += time.Since(start)
	acc.loads++
	if err != nil {
		return nil, fmt.Errorf("exec: %s: load: %w", p.name, err)
	}
	return lm, nil
}

func (e *execInst) runNative(p *execProg, tr *Tracer, acc *execAcc) (runSig, error) {
	var out bytes.Buffer
	m := newMachine(&out)
	proc := loader.NewProcess(m, p.reg)
	lm, err := e.load(p, proc, tr, acc)
	if err != nil {
		return runSig{}, err
	}
	traceTraps(m, tr, "vm")
	start := time.Now()
	id := tr.Begin("vm", "vm.Machine.Run")
	err = m.Run(lm.RuntimeAddr(p.main.Entry))
	tr.End(id)
	took := time.Since(start)
	acc.nativeTime += took
	acc.nativeInstrs += m.Instrs
	key := p.name + "/native"
	acc.latMS[key] = append(acc.latMS[key], took.Seconds()*1000/(float64(m.Instrs)/1e6))
	e.ok(err == nil)
	if err != nil {
		return runSig{}, fmt.Errorf("exec: %s: native run: %w", p.name, err)
	}
	sig := runSig{exit: m.ExitStatus, out: out.String(), instrs: m.Instrs, cycles: m.Cycles}
	return sig, e.same(p.name+"/native", sig)
}

func (e *execInst) runScheme(p *execProg, s scheme, native runSig, tr *Tracer, acc *execAcc) error {
	tool := s.tool()
	files := map[string]*rules.File{}
	if s.static {
		start := time.Now()
		id := tr.Begin("anserve", "anserve.Service.AnalyzeProgram")
		var err error
		files, err = e.svc.AnalyzeProgram(p.main, p.reg, tool)
		tr.End(id)
		acc.lookupTime += time.Since(start)
		acc.lookups++
		if err != nil {
			return fmt.Errorf("exec: %s/%s: lookup: %w", p.name, s.name, err)
		}
	}
	var out bytes.Buffer
	m := newMachine(&out)
	proc := loader.NewProcess(m, p.reg)
	runTool := tool
	dbmSpan := 0
	if tr != nil {
		allocLayer := s.layer
		if s.name == "null" || s.name == "jcfi" {
			allocLayer = "vm" // neither interposes on the allocator
		}
		runTool = &tracedTool{Tool: tool, tr: tr, layer: s.layer, onInit: func(rt *core.Runtime) {
			traceTraps(rt.M, tr, allocLayer)
			dbmSpan = tr.Begin("dbm", "dbm.DBM.Run")
		}}
	}
	rt := core.NewRuntime(m, proc, runTool, files)
	var prof *telemetry.Profile
	if tr != nil {
		rt.DBM.Client = &tracedClient{inner: rt.DBM.Client, tr: tr}
		if s.name == "comprehensive" {
			prof = &telemetry.Profile{}
			rt.DBM.Prof = prof
		}
	}
	lm, err := e.load(p, proc, tr, acc)
	if err != nil {
		return err
	}
	start := time.Now()
	id := tr.Begin("core", "core.Runtime.Run")
	err = rt.Run(lm.RuntimeAddr(p.main.Entry))
	tr.End(dbmSpan)
	tr.End(id)
	took := time.Since(start)
	acc.runTime[s.name] += took
	acc.runInstrs[s.name] += m.Instrs
	key := p.name + "/" + s.name
	acc.latMS[key] = append(acc.latMS[key], took.Seconds()*1000/(float64(native.instrs)/1e6))
	st := rt.DBM.Stats
	acc.dbm.BlocksBuilt += st.BlocksBuilt
	acc.dbm.BlockExecs += st.BlockExecs
	acc.dbm.IndirectDispatch += st.IndirectDispatch
	acc.dbm.FlushedBlocks += st.FlushedBlocks
	acc.dbm.CacheHits += st.CacheHits

	violations := diag.Collect(diag.NewLog(), tool, nil, telemetry.SpanContext{})
	good := err == nil && m.ExitStatus == native.exit && out.String() == native.out && violations == 0
	e.ok(good)
	if prof != nil && e.prof[p.name] == nil {
		e.prof[p.name] = prof
	}
	sig := runSig{exit: m.ExitStatus, out: out.String(), instrs: m.Instrs, cycles: m.Cycles,
		dbm: st, cov: rt.Coverage}
	return e.same(p.name+"/"+s.name, sig)
}

// same checks a run against the first run of the same cell: simulated
// execution is deterministic, and observing it (tracing, profiling) must
// not change it. A mismatch is a benchmark error, not a failed operation.
func (e *execInst) same(key string, sig runSig) error {
	first, seen := e.sigs[key]
	if !seen {
		e.sigs[key] = sig
		return nil
	}
	if first != sig {
		return fmt.Errorf("exec: %s: run is not deterministic: first %+v, now %+v", key,
			first.counters(), sig.counters())
	}
	return nil
}

func (s runSig) counters() string {
	return fmt.Sprintf("exit=%d instrs=%d cycles=%d dbm=%+v cov=%+v out=%dB",
		s.exit, s.instrs, s.cycles, s.dbm, s.cov, len(s.out))
}

// finish reports the deterministic per-scheme figures and, in the traced
// run, checks every program's slowdowns against the figure harness.
func (e *execInst) finish(trace bool, out map[string]float64) ([]string, error) {
	for _, s := range schemes {
		var slow, ratio []float64
		for _, p := range e.progs {
			nat, run := e.sigs[p.name+"/native"], e.sigs[p.name+"/"+s.name]
			sd := metrics.Slowdown(run.cycles, nat.cycles)
			slow = append(slow, sd)
			ratio = append(ratio, float64(run.instrs)/float64(nat.instrs))
			if !trace {
				continue
			}
			res, err := experiments.Run(spec.ByName(p.name), s.fig)
			if err != nil {
				return nil, fmt.Errorf("exec: figure harness %s/%s: %w", p.name, s.fig, err)
			}
			if res.Slowdown != sd {
				return nil, fmt.Errorf("exec: %s/%s: slowdown %v, figure harness %v",
					p.name, s.name, sd, res.Slowdown)
			}
		}
		out["sim_slowdown."+s.name] = geomean(slow)
		out["vm.instr_ratio."+s.name] = geomean(ratio)
	}
	if trace {
		for _, c := range costCenters {
			var sum uint64
			for _, p := range e.progs {
				if pr := e.prof[p.name]; pr != nil {
					sum += pr.Cycles[c]
				}
			}
			out["dbm.cycles."+c.String()] = float64(sum)
		}
	}
	var names []string
	for _, p := range e.progs {
		names = append(names, p.name)
	}
	return []string{fmt.Sprintf("exec programs: %v", names)}, nil
}

// tracedClient records a span around every block the DBM asks the hybrid
// client to translate.
type tracedClient struct {
	inner dbm.Client
	tr    *Tracer
}

func (c *tracedClient) OnBlock(ctx *dbm.BlockContext) []dbm.CInstr {
	defer c.tr.End(c.tr.Begin("core", "core.hybridClient.OnBlock"))
	return c.inner.OnBlock(ctx)
}

// traceTraps wraps the run-time services a program calls through traps:
// the loader's lazy binding and dlopen family, and the allocator, which
// belongs to allocLayer (the VM's default one, or a tool's interposer).
func traceTraps(m *vm.Machine, tr *Tracer, allocLayer string) {
	if tr == nil {
		return
	}
	for _, t := range []struct {
		code  int64
		layer string
		name  string
	}{
		{isa.TrapResolve, "loader", "loader.resolve"},
		{isa.TrapDlopen, "loader", "loader.dlopen"},
		{isa.TrapDlsym, "loader", "loader.dlsym"},
		{isa.TrapDlclose, "loader", "loader.dlclose"},
		{isa.TrapMalloc, allocLayer, allocLayer + ".malloc"},
		{isa.TrapFree, allocLayer, allocLayer + ".free"},
	} {
		h := m.TrapHandlerFor(t.code)
		if h == nil {
			continue
		}
		layer, name := t.layer, t.name
		m.HandleTrap(t.code, func(m *vm.Machine) error {
			defer tr.End(tr.Begin(layer, name))
			return h(m)
		})
	}
}
