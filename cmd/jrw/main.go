// Command jrw is the static AOT rewriter's front end: it captures rewrite
// plans for evaluation workloads, bakes them into each module of the
// program's closure, and reports per-module coverage — which functions were
// rewritten in place, which were refused and why, how many anchors were
// baked in, and how large the appended copy region is.
//
// -verify re-derives every structural guarantee of each rewritten module
// with the independent verifier (original bytes untouched outside pins,
// trampolines well-formed, copy region exactly equal to the plan) and exits
// nonzero on any violation. -parity additionally executes each workload
// under all three backends — dynamic, static, hybrid — and demands
// identical sanitizer verdicts and byte-identical output; it is the
// bake-off's correctness gate in script form.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/registry"
	"repro/internal/rewrite"
	"repro/internal/spec"
)

func main() {
	bench := flag.String("bench", "", "comma-separated workload names (default: all)")
	planned := registry.Select(func(t core.Tool) bool {
		_, ok := t.(core.PlannedTool)
		return ok
	})
	scheme := flag.String("scheme", "comprehensive",
		"tool configuration: "+strings.Join(planned, "|"))
	verify := flag.Bool("verify", false, "run the structural verifier over every rewritten module")
	parity := flag.Bool("parity", false,
		"run dynamic/static/hybrid and cross-check verdicts and output")
	verbose := flag.Bool("v", false, "print per-function refusal reasons")
	versionFlag := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println(buildinfo.String("jrw"))
		return
	}

	if !slices.Contains(planned, *scheme) {
		fmt.Fprintf(os.Stderr, "jrw: unknown scheme %q\n", *scheme)
		os.Exit(2)
	}
	names := spec.Names()
	if *bench != "" {
		names = strings.Split(*bench, ",")
	}

	var modules, covered, refused, anchors, violations int
	for _, name := range names {
		w := spec.ByName(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "jrw: unknown workload %q\n", name)
			os.Exit(2)
		}
		main, reg, err := w.Build(false)
		if err != nil {
			fatal(name, err)
		}
		files, err := core.AnalyzeProgram(main, reg, registry.MustNew(*scheme))
		if err != nil {
			fatal(name, err)
		}
		plans, err := rewrite.CapturePlans(main, reg, files, registry.MustNew(*scheme))
		if err != nil {
			fatal(name, err)
		}
		rws, err := rewrite.RewriteModules(main, reg, plans)
		if err != nil {
			fatal(name, err)
		}

		var modNames []string
		for n := range rws {
			modNames = append(modNames, n)
		}
		sort.Strings(modNames)
		for _, n := range modNames {
			rw, man := rws[n], rws[n].Manifest
			modules++
			covered += len(man.Covered)
			refused += len(man.Refused)
			anchors += man.Anchors
			fmt.Printf("jrw: %s/%s: %d/%d functions covered, %d anchors, %d copy bytes, %d trampolines\n",
				name, n, len(man.Covered), len(man.Covered)+len(man.Refused),
				man.Anchors, man.CopyHi-man.CopyLo, len(man.Pinned))
			if *verbose {
				for _, r := range man.Refused {
					fmt.Printf("jrw:   refused %s (%#x): %s\n", r.Fn, r.Entry, r.Reason)
				}
			}
			if *verify {
				mod := reg[n]
				if n == main.Name {
					mod = main
				}
				vio, err := rewrite.Verify(mod, plans[n], rw)
				if err != nil {
					fatal(name, err)
				}
				for _, v := range vio {
					violations++
					fmt.Fprintf(os.Stderr, "jrw: VIOLATION: %s/%s: %s\n", name, n, v)
				}
			}
		}
		if *parity {
			if err := checkParity(w, *scheme); err != nil {
				violations++
				fmt.Fprintf(os.Stderr, "jrw: VIOLATION: %v\n", err)
			}
		}
	}

	fmt.Printf("jrw: %d modules rewritten, %d functions covered, %d refused, %d anchors, %d violations\n",
		modules, covered, refused, anchors, violations)
	if violations > 0 {
		os.Exit(1)
	}
}

// checkParity executes the workload under all three backends and demands
// identical sanitizer verdicts and byte-identical output. RunBackend itself
// already enforces exit-status and output parity against the native run, so
// a hard error here is also a parity failure.
func checkParity(w *spec.Workload, scheme string) error {
	s, ok := experiments.HybridScheme(scheme)
	if !ok {
		return fmt.Errorf("%s: no evaluation scheme runs %s", w.Name, scheme)
	}
	dyn, err := experiments.RunBackend(w, s, experiments.BackendDynamic)
	if err != nil {
		return fmt.Errorf("%s: dynamic: %w", w.Name, err)
	}
	for _, b := range []experiments.Backend{experiments.BackendStatic, experiments.BackendHybrid} {
		res, err := experiments.RunBackend(w, s, b)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", w.Name, b, err)
		}
		if res.Failed {
			return fmt.Errorf("%s: %s: %s", w.Name, b, res.Reason)
		}
		if res.Violations != dyn.Violations {
			return fmt.Errorf("%s: %s reports %d violations, dynamic %d",
				w.Name, b, res.Violations, dyn.Violations)
		}
		if res.ExitStatus != dyn.ExitStatus {
			return fmt.Errorf("%s: %s exits %d, dynamic %d",
				w.Name, b, res.ExitStatus, dyn.ExitStatus)
		}
		if !bytes.Equal(res.Output, dyn.Output) {
			return fmt.Errorf("%s: %s output diverges from dynamic", w.Name, b)
		}
	}
	return nil
}

func fatal(workload string, err error) {
	fmt.Fprintf(os.Stderr, "jrw: %s: %v\n", workload, err)
	os.Exit(2)
}
