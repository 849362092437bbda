package main

import (
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/experiments"
	"repro/internal/jasan"
	"repro/internal/jcfi"
	"repro/internal/jmsan"
	"repro/internal/jtsan"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/spec"
)

// scheme is one hybrid configuration of the exec workload. Each builds
// its tool exactly as the figure harness does for fig, so the benchmark's
// slowdowns are the figures' slowdowns.
type scheme struct {
	name   string
	fig    experiments.Scheme
	layer  string // layer the tool's hooks are attributed to
	static bool   // whether a rule analysis runs before execution
	tool   func() core.Tool
}

var schemes = []scheme{
	{"null", experiments.NullClient, "dbm", false, func() core.Tool { return nullTool{} }},
	{"jasan", experiments.JASanHybrid, "jasan", true, newJASan},
	{"jmsan", experiments.JMSanHybrid, "jmsan", true, newJMSan},
	{"jtsan", experiments.JTSanHybrid, "jtsan", true, newJTSan},
	{"jcfi", experiments.JCFIHybrid, "jcfi", true, func() core.Tool { return jcfi.New(jcfi.DefaultConfig) }},
	{"comprehensive", experiments.Comprehensive, "tools", true, newComprehensive},
}

func newJASan() core.Tool { return jasan.New(jasan.Config{UseLiveness: true}) }
func newJMSan() core.Tool { return jmsan.New(jmsan.Config{UseLiveness: true}) }
func newJTSan() core.Tool { return jtsan.New(jtsan.Config{UseLiveness: true}) }

func newComprehensive() core.Tool {
	return core.NewMultiTool(
		jasan.New(jasan.Config{UseLiveness: true}),
		jmsan.New(jmsan.Config{UseLiveness: true}),
		jtsan.New(jtsan.Config{UseLiveness: true}),
		jcfi.New(jcfi.DefaultConfig))
}

// analyzeTools are the static configurations of the analyze workload.
var analyzeTools = []struct {
	name, layer string
	tool        func() core.Tool
}{
	{"jasan", "jasan", newJASan},
	{"jasan-elide", "jasan", func() core.Tool { return jasan.New(jasan.Config{UseLiveness: true, Elide: true}) }},
	{"jmsan-elide", "jmsan", func() core.Tool { return jmsan.New(jmsan.Config{UseLiveness: true, Elide: true}) }},
	{"jtsan-elide", "jtsan", func() core.Tool { return jtsan.New(jtsan.Config{UseLiveness: true, Elide: true}) }},
	{"jcfi-narrow", "jcfi", func() core.Tool {
		return jcfi.New(jcfi.Config{Forward: true, Backward: true, Narrow: true})
	}},
	{"comprehensive", "tools", newComprehensive},
}

// nullTool is the null client as a core.Tool: identity translation, no
// static stage — the figure harness's null-client scheme.
type nullTool struct{}

func (nullTool) Name() string                                { return "null-client" }
func (nullTool) StaticPass(*core.StaticContext) []rules.Rule { return nil }
func (nullTool) RuntimeInit(*core.Runtime) error             { return nil }

func (nullTool) Instrument(bc *dbm.BlockContext, _ map[uint64][]rules.Rule) []dbm.CInstr {
	return dbm.NullClient{}.OnBlock(bc)
}

func (nullTool) DynFallback(bc *dbm.BlockContext) []dbm.CInstr {
	return dbm.NullClient{}.OnBlock(bc)
}

// tracedTool records a span around every hook the core calls on a tool.
// It only observes: the inner tool does all the work, so rule files and
// cycle counts are the same as without the wrapper (the determinism
// checks compare them). Code that inspects a tool's concrete type, such
// as violation collection, must be given the inner tool.
type tracedTool struct {
	core.Tool
	tr    *Tracer
	layer string
	// onInit runs after the inner RuntimeInit returns, still inside
	// core.Runtime.Run: the exec workload opens its DBM span there.
	onInit func(rt *core.Runtime)
}

// ConfigKey forwards the inner tool's configuration key, so caches and
// proof artifacts key the same with and without the wrapper.
func (t *tracedTool) ConfigKey() string {
	if ck, ok := t.Tool.(interface{ ConfigKey() string }); ok {
		return ck.ConfigKey()
	}
	return ""
}

func (t *tracedTool) StaticPass(sc *core.StaticContext) []rules.Rule {
	defer t.tr.End(t.tr.Begin(t.layer, t.Name()+".StaticPass"))
	return t.Tool.StaticPass(sc)
}

func (t *tracedTool) Instrument(bc *dbm.BlockContext, rs map[uint64][]rules.Rule) []dbm.CInstr {
	defer t.tr.End(t.tr.Begin(t.layer, t.Name()+".Instrument"))
	return t.Tool.Instrument(bc, rs)
}

func (t *tracedTool) DynFallback(bc *dbm.BlockContext) []dbm.CInstr {
	defer t.tr.End(t.tr.Begin(t.layer, t.Name()+".DynFallback"))
	return t.Tool.DynFallback(bc)
}

func (t *tracedTool) RuntimeInit(rt *core.Runtime) error {
	id := t.tr.Begin(t.layer, t.Name()+".RuntimeInit")
	err := t.Tool.RuntimeInit(rt)
	t.tr.End(id)
	if err == nil && t.onInit != nil {
		t.onInit(rt)
	}
	return err
}

// ccTimer accumulates time spent in jcc across a run's set-ups.
type ccTimer struct {
	total time.Duration
	calls int
}

// compile runs jcc on src, timing the call.
func (c *ccTimer) compile(src string, opts cc.Options) (*obj.Module, error) {
	start := time.Now()
	mod, err := cc.Compile(src, opts)
	c.total += time.Since(start)
	c.calls++
	return mod, err
}

// build compiles a spec program and its modules, timing the call.
func (c *ccTimer) build(w *spec.Workload) (*obj.Module, loader.Registry, error) {
	start := time.Now()
	main, reg, err := w.Build(false)
	c.total += time.Since(start)
	c.calls++
	return main, reg, err
}

func (c *ccTimer) meanMS() float64 {
	if c.calls == 0 {
		return 0
	}
	return c.total.Seconds() * 1000 / float64(c.calls)
}
