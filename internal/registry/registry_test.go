package registry_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/anserve"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/registry"
)

const (
	jasanKey = "liveness=true,scev=false,elide=false"
	jmsanKey = "liveness=true,elide=false"
	jtsanKey = "liveness=true,elide=false"
	jcfiKey  = "forward=true,backward=true,narrow=false"
)

// goldenKeys pins every registered name to the core.ToolKey it has always
// had: rule caches, proof artifacts and rewrite plans key on it, so a
// renamed or reconfigured entry must show up here.
var goldenKeys = map[string]string{
	"none":             "null-client",
	"jasan":            "jasan:" + jasanKey,
	"jasan-base":       "jasan:liveness=false,scev=false,elide=false",
	"jasan-scev":       "jasan:liveness=true,scev=true,elide=false",
	"jasan-elide":      "jasan:liveness=true,scev=false,elide=true",
	"jasan-scev-elide": "jasan:liveness=true,scev=true,elide=true",
	"jcfi":             "jcfi:" + jcfiKey,
	"jcfi-forward":     "jcfi:forward=true,backward=false,narrow=false",
	"jcfi-narrow":      "jcfi:forward=true,backward=true,narrow=true",
	"jmsan":            "jmsan:" + jmsanKey,
	"jmsan-base":       "jmsan:liveness=false,elide=false",
	"jmsan-elide":      "jmsan:liveness=true,elide=true",
	"jtsan":            "jtsan:" + jtsanKey,
	"jtsan-base":       "jtsan:liveness=false,elide=false",
	"jtsan-elide":      "jtsan:liveness=true,elide=true",
	"jasan+jmsan":      "jasan+jmsan:jasan{" + jasanKey + "}+jmsan{" + jmsanKey + "}",
	"comprehensive": "jasan+jmsan+jtsan+jcfi:jasan{" + jasanKey + "}+jmsan{" + jmsanKey +
		"}+jtsan{" + jtsanKey + "}+jcfi{" + jcfiKey + "}",
	"jlint": "jlint:report-v1",
}

func TestGoldenToolKeys(t *testing.T) {
	var want []string
	for name := range goldenKeys {
		want = append(want, name)
	}
	slices.Sort(want)
	if got := registry.Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	seen := map[string]string{}
	for _, name := range registry.Names() {
		tool, err := registry.New(name)
		if err != nil {
			t.Fatal(err)
		}
		key := core.ToolKey(tool)
		if key != goldenKeys[name] {
			t.Errorf("%s: ToolKey %q, want %q", name, key, goldenKeys[name])
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s share ToolKey %q", prev, name, key)
		}
		seen[key] = name
	}
	if _, err := registry.New("jasan-typo"); err == nil {
		t.Fatal("New accepted an unknown name")
	}
}

func TestNewReturnsFreshInstances(t *testing.T) {
	for _, name := range registry.Names() {
		a, b := registry.MustNew(name), registry.MustNew(name)
		// Zero-size tools (the null client, jlint) carry no state to share.
		stateless := reflect.Indirect(reflect.ValueOf(a)).Type().Size() == 0
		if a == b && !stateless {
			t.Errorf("%s: two New calls returned the same instance", name)
		}
	}
}

// TestComprehensiveAgreesEverywhere checks that every front end's
// "comprehensive" is one configuration: the daemon's, the evaluation
// harness's Comprehensive scheme, and the registry entry jrw rewrites with.
func TestComprehensiveAgreesEverywhere(t *testing.T) {
	want := core.ToolKey(registry.MustNew("comprehensive"))
	daemon := anserve.DefaultTools()["comprehensive"]
	if daemon == nil {
		t.Fatal("daemon does not serve comprehensive")
	}
	if got := core.ToolKey(daemon()); got != want {
		t.Errorf("daemon comprehensive = %q, want %q", got, want)
	}
	exp, static, err := experiments.NewTool(experiments.Comprehensive)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.ToolKey(exp); got != want || !static {
		t.Errorf("experiments Comprehensive = %q (static %t), want %q with its static stage", got, static, want)
	}
	if s, ok := experiments.HybridScheme("comprehensive"); !ok || s != experiments.Comprehensive {
		t.Errorf("HybridScheme(comprehensive) = %q, %t", s, ok)
	}
	if len(anserve.DefaultTools()) != len(registry.Names()) {
		t.Errorf("daemon serves %d tools, registry has %d", len(anserve.DefaultTools()), len(registry.Names()))
	}
}

func TestLeavesFlattenComposition(t *testing.T) {
	var names []string
	for _, leaf := range core.Leaves(registry.MustNew("comprehensive")) {
		names = append(names, leaf.Name())
	}
	if want := []string{"jasan", "jmsan", "jtsan", "jcfi"}; !slices.Equal(names, want) {
		t.Fatalf("Leaves(comprehensive) = %v, want %v", names, want)
	}
	if leaves := core.Leaves(registry.MustNew("jasan")); len(leaves) != 1 {
		t.Fatalf("Leaves(jasan) has %d entries, want 1", len(leaves))
	}
}
