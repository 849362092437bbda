// Package spec provides the evaluation workload suite: 28 synthetic
// programs named after the SPEC CPU2006 benchmarks the paper evaluates on.
// Each workload is compiled from MiniC (plus hand-written assembly modules
// where a benchmark's published trait demands it) and models the
// characteristic that drives that benchmark's bar in the paper's figures:
//
//   - memory-access density (ASan overhead, Figs. 7–8),
//   - indirect-call/return frequency (CFI overhead, Figs. 9/11),
//   - callbacks passed through memory into library code — gcc, h264ref,
//     cactusADM (the Lockdown false positives of §6.2.2),
//   - dlopen-loaded solver code — cactusADM (92.4% dynamically discovered
//     blocks, Fig. 14),
//   - computed-goto blocks invisible to static recovery — lbm (two blocks,
//     18.7% of a tiny kernel, Fig. 14),
//   - data embedded in code sections — gamess, zeusmp (BinCFI's rewriting
//     failures, §6.2.1),
//   - source language (Retrowrite handles only C, and the paper's Fig. 7
//     marks the rest with x).
package spec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/obj"
)

// Workload is one benchmark program.
type Workload struct {
	Name string
	// Lang is the source language of the real benchmark: "c", "c++" or
	// "fortran". Retrowrite applies only to C (Fig. 7's x marks).
	Lang string
	// Src is the MiniC source of the main program. The token SCALE_N is
	// replaced with the iteration scale at build time.
	Src string
	// ExtraC maps additional shared-object module names to MiniC sources.
	ExtraC map[string]string
	// ExtraAsm maps additional module names to assembly sources.
	ExtraAsm map[string]string
	// DlopenOnly lists modules present in the registry but absent from
	// the static dependency closure (loaded via dlopen at run time).
	DlopenOnly []string
	// LockdownBroken marks benchmarks the Lockdown prototype could not
	// run (omnetpp, dealII — §6.2.1 reports the same failures).
	LockdownBroken bool
	// Scale multiplies the workload's base iteration count.
	Scale int
}

// Retrowritable reports whether the Retrowrite baseline applies (C only).
func (w *Workload) Retrowritable() bool { return w.Lang == "c" }

// Build compiles the workload: the main module (PIC if requested — used for
// the Retrowrite configuration), every extra module, and a registry
// containing libj and all of them. Static dependencies are wired through
// .needs/imports; DlopenOnly modules are only in the registry.
func (w *Workload) Build(picMain bool) (*obj.Module, loader.Registry, error) {
	scale := w.Scale
	if scale <= 0 {
		scale = 1
	}
	lj, err := libj.Module()
	if err != nil {
		return nil, nil, err
	}
	reg := loader.Registry{libj.Name: lj}

	expand := func(src string) string {
		return strings.ReplaceAll(src, "SCALE_N", fmt.Sprintf("%d", scale))
	}
	// Iterate the module maps in sorted-name order so the built main
	// module is byte-identical across runs (Needed order is part of the
	// module serialization, and content-addressed rule caching keys on
	// the module hash).
	cNames := sortedKeys(w.ExtraC)
	asmNames := sortedKeys(w.ExtraAsm)
	for _, name := range cNames {
		mod, err := cc.Compile(expand(w.ExtraC[name]), cc.Options{
			Module: name, Shared: true, O2: true, NoRuntime: true,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("spec %s: module %s: %w", w.Name, name, err)
		}
		reg[name] = mod
	}
	for _, name := range asmNames {
		mod, err := asm.Assemble(expand(w.ExtraAsm[name]))
		if err != nil {
			return nil, nil, fmt.Errorf("spec %s: module %s: %w", w.Name, name, err)
		}
		reg[name] = mod
	}

	main, err := cc.Compile(expand(w.Src), cc.Options{
		Module: w.Name, O2: true, PIC: picMain,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("spec %s: %w", w.Name, err)
	}
	// Wire static dependencies: every extra module not in DlopenOnly.
	dlopenOnly := map[string]bool{}
	for _, n := range w.DlopenOnly {
		dlopenOnly[n] = true
	}
	for _, name := range cNames {
		if !dlopenOnly[name] {
			main.Needed = append(main.Needed, name)
		}
	}
	for _, name := range asmNames {
		if !dlopenOnly[name] {
			main.Needed = append(main.Needed, name)
		}
	}
	return main, reg, nil
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ByName returns the named workload, or nil.
func ByName(name string) *Workload {
	for _, w := range All() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Names returns the benchmark names in the paper's figure order.
func Names() []string {
	var out []string
	for _, w := range All() {
		out = append(out, w.Name)
	}
	return out
}

// LargestModule returns the module with the most executable bytes over
// every workload's non-PIC build and registry: the input of the per-layer
// analysis benchmarks.
func LargestModule() (*obj.Module, error) {
	var best *obj.Module
	var bestSize uint64
	for _, w := range All() {
		main, reg, err := w.Build(false)
		if err != nil {
			return nil, err
		}
		mods := []*obj.Module{main}
		for _, name := range sortedKeys(reg) {
			mods = append(mods, reg[name])
		}
		for _, m := range mods {
			var size uint64
			for i := range m.Sections {
				if m.Sections[i].Executable() {
					size += uint64(len(m.Sections[i].Data))
				}
			}
			if size > bestSize {
				best, bestSize = m, size
			}
		}
	}
	return best, nil
}
