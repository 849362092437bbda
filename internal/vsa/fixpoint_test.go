package vsa

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/spec"
)

// sameState reports whether two states are identical, registers and frame
// slots alike.
func sameState(a, b *State) bool {
	return a.Regs == b.Regs && slices.Equal(a.slots, b.slots)
}

// specClosureModules returns every module of every spec workload's
// closure, non-PIC and PIC, each distinct module once.
func specClosureModules(t testing.TB) []*obj.Module {
	t.Helper()
	var out []*obj.Module
	seen := map[string]bool{}
	for _, w := range spec.All() {
		for _, pic := range []bool{false, true} {
			main, reg, err := w.Build(pic)
			if err != nil {
				t.Fatal(err)
			}
			mods := []*obj.Module{main}
			names := make([]string, 0, len(reg))
			for n := range reg {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				mods = append(mods, reg[n])
			}
			for _, m := range mods {
				if h := m.HashString(); !seen[h] {
					seen[h] = true
					out = append(out, m)
				}
			}
		}
	}
	return out
}

// TestFixpointConsistency checks the incremental fixpoint against fresh
// runs: under the final summaries, re-running any analysed function must
// reproduce every one of its blocks' recorded entry states, and must not
// weaken its own summary any further. A reuse rule that keeps a run whose
// callee summary changed afterwards fails here.
func TestFixpointConsistency(t *testing.T) {
	for _, mod := range specClosureModules(t) {
		g, err := cfg.Build(mod)
		if err != nil {
			t.Fatalf("%s: cfg: %v", mod.Name, err)
		}
		res := Analyze(mod, g, analysis.FindCanaries(g))
		e := res.eng
		for _, fn := range g.Funcs {
			if e.poisoned[fn.Entry] || e.pltName[fn.Entry] != "" {
				continue
			}
			fr := e.runFunc(fn)
			for _, blk := range fn.Blocks {
				want, wok := fr.states[blk.Start]
				got, gok := res.entries[blk.Start]
				if wok != gok || (wok && !sameState(want, got)) {
					t.Fatalf("%s: %s block %#x: recorded entry state differs from a fresh run",
						mod.Name, fn.Name, blk.Start)
				}
			}
			sum := e.sums[fn.Entry]
			met := FnSummary{
				Preserved: sum.Preserved & fr.preserved,
				Balanced:  sum.Balanced && fr.balanced,
			}
			if met != *sum {
				t.Fatalf("%s: %s summary %+v is not a fixpoint (fresh run meets to %+v)",
					mod.Name, fn.Name, *sum, met)
			}
		}
	}
}

// f calls g, which tail-calls h, which clobbers r12. The tests concatenate
// the three functions in different layout orders.
const multiRoundF = `
f:
    mov r12, 5
    call g
    mov r0, r12
    ret
`
const multiRoundG = `
g:
    jmp h
`
const multiRoundH = `
h:
    mov r12, 9
    ret
`

// TestMultiRoundWeakening lays the module out caller-first, so f and g run
// on optimistic summaries before h weakens: g must be re-run once h's
// summary changes, and f once g's does. The results must equal a
// callee-first layout, where every callee settles before its caller runs.
func TestMultiRoundWeakening(t *testing.T) {
	type outcome struct {
		sums     map[string]FnSummary
		postCall [isa.NumRegs]Value
	}
	analyzeOrder := func(body string) outcome {
		mod, g, res := analyzeSrc(t, ".module t\n.entry f\n.section .text\n"+body)
		out := outcome{sums: map[string]FnSummary{}}
		for _, name := range []string{"f", "g", "h"} {
			s := res.Summaries[mod.FindSymbol(name).Addr]
			if s == nil {
				t.Fatalf("no summary for %s", name)
			}
			out.sums[name] = *s
		}
		f := mod.FindSymbol("f").Addr
		blk, in := findInstr(t, g, f, func(in *isa.Instr) bool {
			return in.Op == isa.OpMovRR && in.Rd == isa.R0
		})
		out.postCall = stateBefore(t, res, blk, in.Addr).Regs
		return out
	}
	callerFirst := analyzeOrder(multiRoundF + multiRoundG + multiRoundH)
	for _, name := range []string{"f", "g"} {
		if callerFirst.sums[name].Preserved.Has(isa.R12) {
			t.Errorf("%s summary %+v keeps r12 preserved", name, callerFirst.sums[name])
		}
	}
	if r12 := callerFirst.postCall[isa.R12]; r12 != Top() {
		t.Errorf("r12 after call g = %+v, want Top", r12)
	}
	calleeFirst := analyzeOrder(multiRoundH + multiRoundG + multiRoundF)
	for name, s := range callerFirst.sums {
		if calleeFirst.sums[name] != s {
			t.Errorf("%s summary: caller-first %+v, callee-first %+v",
				name, s, calleeFirst.sums[name])
		}
	}
	if callerFirst.postCall != calleeFirst.postCall {
		t.Errorf("state after call g: caller-first %+v, callee-first %+v",
			callerFirst.postCall, calleeFirst.postCall)
	}
}

var benchResult *Result

// BenchmarkVSAAnalyze runs the whole-module value-set analysis on the
// largest spec module and reports modules analysed per second.
func BenchmarkVSAAnalyze(b *testing.B) {
	mod, err := spec.LargestModule()
	if err != nil {
		b.Fatal(err)
	}
	g, err := cfg.Build(mod)
	if err != nil {
		b.Fatal(err)
	}
	canaries := analysis.FindCanaries(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = Analyze(mod, g, canaries)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "modules/s")
}
