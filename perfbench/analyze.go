package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/jlint"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rewrite"
	"repro/internal/rules"
	"repro/internal/spec"
	"repro/internal/vsa"
)

// analyzeGenPrograms is how many generated programs join the spec draw:
// enough distinct modules that the latency tail spans many of them, few
// enough that every module repeats several times in a timed phase.
const analyzeGenPrograms = 400

// analyzeInst is the analyze workload: the cold static pipeline over
// module bytes, with no execution.
type analyzeInst struct {
	tally
	spec []string // the seed's spec programs
	// progs holds each program's closure: module names in
	// dependency-first order, the main module last.
	progs [][]string
	bytes map[string][]byte // module name -> serialized module
	// first holds each (module, tool) rule file from the first round;
	// every later round must reproduce it byte for byte.
	first map[string][]byte
}

func setupAnalyze(seed int64, cc *ccTimer) (instance, error) {
	a := &analyzeInst{bytes: map[string][]byte{}, first: map[string][]byte{}}
	addProg := func(name string, main *obj.Module, reg loader.Registry) error {
		mods, err := loader.LddClosure(main, reg)
		if err != nil {
			return fmt.Errorf("analyze: %s: %w", name, err)
		}
		var closure []string
		for _, m := range mods {
			if _, ok := a.bytes[m.Name]; !ok {
				a.bytes[m.Name] = m.Marshal()
			}
			closure = append(closure, m.Name)
		}
		a.progs = append(a.progs, closure)
		return nil
	}
	a.spec = analyzeSpecDraw(seed)
	for _, name := range a.spec {
		main, reg, err := cc.build(spec.ByName(name))
		if err != nil {
			return nil, err
		}
		if err := addProg(name, main, reg); err != nil {
			return nil, err
		}
	}
	lj, err := libj.Module()
	if err != nil {
		return nil, err
	}
	for i, src := range genSources(seed, 0, analyzeGenPrograms) {
		name := moduleName("gen", i)
		mod, err := cc.compile(src, ccOptions(name))
		if err != nil {
			return nil, fmt.Errorf("analyze: %s: %w", name, err)
		}
		if err := addProg(name, mod, loader.Registry{libj.Name: lj}); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func (a *analyzeInst) close() {}

// analyzeAcc accumulates one phase's per-layer measurements.
type analyzeAcc struct {
	time  map[string]time.Duration
	calls map[string]int
	count map[string]float64
	// latMS holds each module's pipeline latencies, one per round.
	latMS map[string][]float64
}

// timed runs f inside a span and adds its duration to metric key.
func (acc *analyzeAcc) timed(tr *Tracer, key, layer, name string, f func()) {
	start := time.Now()
	id := tr.Begin(layer, name)
	f()
	tr.End(id)
	acc.time[key] += time.Since(start)
	acc.calls[key]++
}

func (a *analyzeInst) run(d time.Duration, tr *Tracer) (*phase, error) {
	acc := &analyzeAcc{time: map[string]time.Duration{}, calls: map[string]int{},
		count: map[string]float64{}, latMS: map[string][]float64{}}
	start := time.Now()
	rounds := 0
	var finished windows
	for rounds == 0 || time.Since(start) < d {
		done := map[string]*obj.Module{}
		jasanRules := map[string]*rules.File{}
		for _, closure := range a.progs {
			main := closure[len(closure)-1]
			for _, name := range closure {
				if done[name] != nil {
					continue
				}
				tr.NewTrace()
				t0 := time.Now()
				mod, rf, err := a.module(name, tr, acc)
				if err != nil {
					return nil, err
				}
				acc.latMS[name] = append(acc.latMS[name], time.Since(t0).Seconds()*1000)
				if name != main {
					finished.add(time.Since(start))
				}
				done[name], jasanRules[name] = mod, rf
			}
			// The rewriter's time joins the main module's sample: the
			// program is ready once its rewrite is verified.
			t0 := time.Now()
			a.rewrite(closure, done, jasanRules, tr, acc)
			lat := acc.latMS[main]
			lat[len(lat)-1] += time.Since(t0).Seconds() * 1000
			finished.add(time.Since(start))
		}
		rounds++
	}
	n := float64(rounds)
	mean := func(key string, scale float64) float64 {
		if acc.calls[key] == 0 {
			return 0
		}
		return acc.time[key].Seconds() * scale / float64(acc.calls[key])
	}
	// A module's latency is the median of its rounds, so a burst of
	// contention from another tenant of the machine, which slows every
	// module it overlaps, does not fill the tail by itself.
	var latMS []float64
	for _, xs := range acc.latMS {
		latMS = append(latMS, median(xs))
	}
	elapsed := time.Since(start)
	ph := &phase{elapsed: elapsed, rates: finished.rates(elapsed), lat: summarize(latMS),
		units: n, actors: 1, layer: map[string]float64{}}
	ph.layer["obj.unmarshal_us"] = mean("obj.unmarshal", 1e6)
	for _, t := range analyzeTools {
		ph.layer["core.analyze_ms."+t.name] = mean("core.analyze."+t.name, 1e3)
	}
	ph.layer["rules.marshal_us"] = mean("rules.marshal", 1e6)
	ph.layer["rules.unmarshal_us"] = mean("rules.unmarshal", 1e6)
	ph.layer["vsa.verify_ms"] = mean("vsa.verify", 1e3)
	ph.layer["jlint.analyze_ms"] = mean("jlint.analyze", 1e3)
	ph.layer["rewrite.capture_ms"] = mean("rewrite.capture", 1e3)
	ph.layer["rewrite.apply_ms"] = mean("rewrite.apply", 1e3)
	ph.layer["rewrite.verify_ms"] = mean("rewrite.verify", 1e3)
	for _, k := range []string{"vsa.claims", "rules.bytes", "rewrite.refusals"} {
		ph.layer[k] = acc.count[k] / n
	}
	return ph, nil
}

// module runs the static pipeline on one module's bytes and returns the
// decoded module and its jasan rule file.
func (a *analyzeInst) module(name string, tr *Tracer, acc *analyzeAcc) (*obj.Module, *rules.File, error) {
	var mod *obj.Module
	var err error
	acc.timed(tr, "obj.unmarshal", "obj", "obj.Unmarshal", func() {
		mod, err = obj.Unmarshal(a.bytes[name])
	})
	if err != nil {
		return nil, nil, fmt.Errorf("analyze: %s: %w", name, err)
	}
	good := true
	var jasanRules *rules.File
	for _, t := range analyzeTools {
		tool := t.tool()
		if tr != nil {
			tool = &tracedTool{Tool: tool, tr: tr, layer: t.layer}
		}
		var f *rules.File
		var ps *vsa.ProofSet
		acc.timed(tr, "core.analyze."+t.name, "core", "core.AnalyzeModuleProofs", func() {
			f, ps, err = core.AnalyzeModuleProofs(mod, tool)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("analyze: %s/%s: %w", name, t.name, err)
		}
		var b, again []byte
		var back *rules.File
		acc.timed(tr, "rules.marshal", "rules", "rules.File.Marshal", func() { b = f.Marshal() })
		acc.timed(tr, "rules.unmarshal", "rules", "rules.Unmarshal", func() { back, err = rules.Unmarshal(b) })
		if err == nil {
			again = back.Marshal()
		}
		var bad []vsa.Violation
		acc.timed(tr, "vsa.verify", "vsa", "vsa.Verify", func() { bad = vsa.Verify(mod, ps, back) })
		acc.count["vsa.claims"] += float64(ps.NumClaims())
		acc.count["rules.bytes"] += float64(len(b))
		good = good && err == nil && bytes.Equal(b, again) && len(bad) == 0
		key := name + "/" + t.name
		if prev, ok := a.first[key]; !ok {
			a.first[key] = b
		} else if !bytes.Equal(prev, b) {
			return nil, nil, fmt.Errorf("analyze: %s: rule file differs from the first round's", key)
		}
		if t.name == "jasan" {
			jasanRules = f
		}
	}
	var rep *jlint.Report
	acc.timed(tr, "jlint.analyze", "jlint", "jlint.Analyze", func() { rep, err = jlint.Analyze(mod) })
	good = good && err == nil && len(rep.Musts()) == 0
	a.ok(good)
	return mod, jasanRules, nil
}

// rewrite captures the program's jasan plans, applies them and verifies
// every rewritten module.
func (a *analyzeInst) rewrite(closure []string, mods map[string]*obj.Module,
	files map[string]*rules.File, tr *Tracer, acc *analyzeAcc) {

	reg := loader.Registry{}
	for _, name := range closure {
		reg[name] = mods[name]
	}
	main := mods[closure[len(closure)-1]]
	var plans map[string]*rewrite.Plan
	var err error
	acc.timed(tr, "rewrite.capture", "rewrite", "rewrite.CapturePlans", func() {
		plans, err = rewrite.CapturePlans(main, reg, files, newJASan())
	})
	good := err == nil
	for _, name := range closure {
		plan := plans[name]
		if plan == nil {
			continue
		}
		var rw *rewrite.Rewritten
		acc.timed(tr, "rewrite.apply", "rewrite", "rewrite.Apply", func() { rw, err = rewrite.Apply(mods[name], plan) })
		if err != nil {
			good = false
			continue
		}
		acc.count["rewrite.refusals"] += float64(len(rw.Manifest.Refused))
		var bad []string
		acc.timed(tr, "rewrite.verify", "rewrite", "rewrite.Verify", func() { bad, err = rewrite.Verify(mods[name], plan, rw) })
		good = good && err == nil && len(bad) == 0
	}
	a.ok(good)
}

func (a *analyzeInst) finish(bool, map[string]float64) ([]string, error) {
	return []string{fmt.Sprintf("analyze corpus: %d modules, spec programs %v", len(a.bytes), a.spec)}, nil
}

// ccOptions are the jcc options for a generated single-module program.
func ccOptions(module string) cc.Options { return cc.Options{Module: module, O2: true} }
