// Package registry is the one table of Janitizer tool configurations. Every
// front end — the daemon, the evaluation harness, the fuzzer, the Juliet
// harness and the jrun/jrw/janitizer/jvet commands — builds its tools here
// by name, so a name means the same configuration (the same core.ToolKey)
// everywhere. Whether a static stage runs is a property of how a caller
// uses a tool, not of the tool; artifact tools are recognised by asserting
// core.ArtifactTool on an instance.
package registry

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/jasan"
	"repro/internal/jcfi"
	"repro/internal/jlint"
	"repro/internal/jmsan"
	"repro/internal/jtsan"
)

// tools maps each name to its constructor.
var tools = map[string]func() core.Tool{
	"none": func() core.Tool { return core.NullTool{} },

	"jasan":       func() core.Tool { return jasan.New(jasan.Config{UseLiveness: true}) },
	"jasan-base":  func() core.Tool { return jasan.New(jasan.Config{}) },
	"jasan-scev":  func() core.Tool { return jasan.New(jasan.Config{UseLiveness: true, UseSCEV: true}) },
	"jasan-elide": func() core.Tool { return jasan.New(jasan.Config{UseLiveness: true, Elide: true}) },
	"jasan-scev-elide": func() core.Tool {
		return jasan.New(jasan.Config{UseLiveness: true, UseSCEV: true, Elide: true})
	},

	"jcfi":         func() core.Tool { return jcfi.New(jcfi.DefaultConfig) },
	"jcfi-forward": func() core.Tool { return jcfi.New(jcfi.Config{Forward: true}) },
	"jcfi-narrow": func() core.Tool {
		return jcfi.New(jcfi.Config{Forward: true, Backward: true, Narrow: true})
	},

	"jmsan":       func() core.Tool { return jmsan.New(jmsan.Config{UseLiveness: true}) },
	"jmsan-base":  func() core.Tool { return jmsan.New(jmsan.Config{}) },
	"jmsan-elide": func() core.Tool { return jmsan.New(jmsan.Config{UseLiveness: true, Elide: true}) },

	"jtsan":       func() core.Tool { return jtsan.New(jtsan.Config{UseLiveness: true}) },
	"jtsan-base":  func() core.Tool { return jtsan.New(jtsan.Config{}) },
	"jtsan-elide": func() core.Tool { return jtsan.New(jtsan.Config{UseLiveness: true, Elide: true}) },

	"jasan+jmsan": func() core.Tool {
		return core.NewMultiTool(
			jasan.New(jasan.Config{UseLiveness: true}),
			jmsan.New(jmsan.Config{UseLiveness: true}))
	},
	// comprehensive is all four sanitizers over one shared translation.
	"comprehensive": func() core.Tool {
		return core.NewMultiTool(
			jasan.New(jasan.Config{UseLiveness: true}),
			jmsan.New(jmsan.Config{UseLiveness: true}),
			jtsan.New(jtsan.Config{UseLiveness: true}),
			jcfi.New(jcfi.DefaultConfig))
	},

	"jlint": func() core.Tool { return jlint.New() },
}

// New returns a fresh instance of the named tool: tools carry per-run
// state, so no two callers ever share one.
func New(name string) (core.Tool, error) {
	mk, ok := tools[name]
	if !ok {
		return nil, fmt.Errorf("unknown tool %q", name)
	}
	return mk(), nil
}

// MustNew is New for names fixed in code; it panics on an unknown name.
func MustNew(name string) core.Tool {
	t, err := New(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Names returns every registered name, sorted.
func Names() []string {
	names := make([]string, 0, len(tools))
	for n := range tools {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Select returns the sorted names whose fresh instance satisfies keep.
func Select(keep func(core.Tool) bool) []string {
	var names []string
	for _, n := range Names() {
		if keep(tools[n]()) {
			names = append(names, n)
		}
	}
	return names
}

// Runnable reports whether t produces rewrite rules for the dynamic
// modifier, i.e. is not an artifact tool.
func Runnable(t core.Tool) bool {
	_, artifact := t.(core.ArtifactTool)
	return !artifact
}
