package experiments

import (
	"repro/internal/baseline"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/rules"
	"repro/internal/spec"
)

// StaticAIR computes the Figure 13 metric for one workload: the link-time
// average indirect-target reduction of JCFI and BinCFI over the program's
// whole static module set. BinCFI additionally reports a failure reason for
// modules its rewriting cannot handle (the gamess/zeusmp x marks).
func StaticAIR(w *spec.Workload) (jcfiAIR, bincfiAIR float64, bincfiFail string, err error) {
	main, reg, err := w.Build(false)
	if err != nil {
		return 0, 0, "", err
	}
	mods, err := loader.LddClosure(main, reg)
	if err != nil {
		return 0, 0, "", err
	}

	type modInfo struct {
		graph *cfg.Graph
		jcfiF *rules.File
		binF  *rules.File
	}
	infos := map[string]*modInfo{}
	var space float64
	jcfiTool := registry.MustNew("jcfi")
	binTool := baseline.NewBinCFI()
	for _, mod := range mods {
		g, err := cfg.Build(mod)
		if err != nil {
			return 0, 0, "", err
		}
		jf, err := core.AnalyzeModule(mod, jcfiTool)
		if err != nil {
			return 0, 0, "", err
		}
		bf, err := core.AnalyzeModule(mod, binTool)
		if err != nil {
			return 0, 0, "", err
		}
		infos[mod.Name] = &modInfo{graph: g, jcfiF: jf, binF: bf}
		for _, sec := range mod.ExecSections() {
			space += float64(len(sec.Data))
		}
		if bincfiFail == "" {
			if cerr := binTool.CheckInput(mod, g); cerr != nil {
				bincfiFail = cerr.Error()
			}
		}
	}

	// Target-set sizes. JCFI's inter-module policy unions the outward
	// targets of every module into each caller's call set; BinCFI unions
	// everything (weaker scan-based sets) and adds call-preceded return
	// targets.
	countTargets := func(get func(*modInfo) *rules.File, kindMask uint64) float64 {
		seen := map[uint64]bool{}
		for _, info := range infos {
			for _, r := range get(info).Rules {
				if r.ID == rules.CFITarget && r.Data[0]&kindMask != 0 {
					seen[r.Instr] = true
				}
			}
		}
		return float64(len(seen))
	}
	const retKind = uint64(4)
	jcfiCalls := countTargets(func(i *modInfo) *rules.File { return i.jcfiF }, rules.TargetCall)
	binCalls := countTargets(func(i *modInfo) *rules.File { return i.binF },
		rules.TargetCall|rules.TargetJump)
	binRets := countTargets(func(i *modInfo) *rules.File { return i.binF }, retKind)

	var jAcc, bAcc metrics.AIRAccumulator
	for _, info := range infos {
		// Per-module jump sets for JCFI.
		jumpSet := 0.0
		for _, r := range info.jcfiF.Rules {
			if r.ID == rules.CFITarget && r.Data[0]&rules.TargetJump != 0 {
				jumpSet++
			}
		}
		for _, r := range info.jcfiF.Rules {
			switch r.ID {
			case rules.CFICall, rules.CFIResolverRet:
				jAcc.Add(jcfiCalls, space)
			case rules.CFIJump:
				// Function-range instruction boundaries + jump set.
				lo, hi := r.Data[1], r.Data[2]
				n := 0.0
				for a := lo; a < hi; a++ {
					if info.graph.IsInstrBoundary(a) {
						n++
					}
				}
				jAcc.Add(n+jumpSet, space)
			case rules.CFIRet:
				jAcc.Add(1, space) // precise shadow stack
			}
		}
		boundaries := float64(info.graph.NumInstrs())
		for _, r := range info.binF.Rules {
			switch r.ID {
			case rules.CFICall, rules.CFIResolverRet:
				bAcc.Add(binCalls, space)
			case rules.CFIJump:
				// Any instruction boundary of the module plus the
				// cross-module target union.
				bAcc.Add(boundaries+binCalls, space)
			case rules.CFIRet:
				bAcc.Add(binRets, space) // any call-preceded instruction
			}
		}
	}
	return jAcc.Percent(), bAcc.Percent(), bincfiFail, nil
}
