package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "core", Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10, 60) of the root.
		{ID: 2, Parent: 1, Layer: "dbm", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Layer: "jasan", Start: ms(30), End: ms(60)},
		// A grandchild covers [15, 20) of span 2.
		{ID: 4, Parent: 2, Layer: "loader", Start: ms(15), End: ms(20)},
		// A second root whose child overruns it is clipped to [205, 210).
		{ID: 5, Layer: "anserve", Start: ms(200), End: ms(210)},
		{ID: 6, Parent: 5, Layer: "core", Start: ms(205), End: ms(230)},
	}
	got, roots := selfTimes(spans)
	want := map[string]layerTotals{
		"core":    {Self: ms(50) + ms(25), Calls: 2},
		"dbm":     {Self: ms(25), Calls: 1},
		"jasan":   {Self: ms(30), Calls: 1},
		"loader":  {Self: ms(5), Calls: 1},
		"anserve": {Self: ms(5), Calls: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if roots != ms(110) {
		t.Errorf("root total = %v, want 110ms", roots)
	}
}

func TestTracerNestsBeginEnd(t *testing.T) {
	tr := newTracer()
	tr.NewTrace()
	a := tr.Begin("core", "a")
	b := tr.Begin("dbm", "b")
	tr.End(b)
	c := tr.Begin("vm", "c")
	tr.End(c)
	tr.End(a)
	tr.NewTrace()
	d := tr.Begin("obj", "d")
	tr.End(d)
	sp := tr.Spans()
	parents := []int{sp[0].Parent, sp[1].Parent, sp[2].Parent, sp[3].Parent}
	if !reflect.DeepEqual(parents, []int{0, a, a, 0}) {
		t.Errorf("parents = %v", parents)
	}
	if sp[0].Trace == sp[3].Trace || sp[0].Trace != sp[2].Trace {
		t.Errorf("trace ids = %d %d %d", sp[0].Trace, sp[2].Trace, sp[3].Trace)
	}
	var off *Tracer
	if id := off.Begin("core", "x"); id != 0 || off.Spans() != nil {
		t.Errorf("nil tracer recorded span %d", id)
	}
	off.End(0)
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	s := summarize(xs)
	if s.tailPct != 99 || s.tail != 990 || s.p50 != 500.5 {
		t.Errorf("summarize = %+v, want p99 990 and p50 500.5", s)
	}
}

func TestWindowRatesSplitAtWholeSeconds(t *testing.T) {
	var w, other windows
	for i := 1; i <= 40; i++ {
		if i%3 == 0 {
			other.add(ms(100 * i)) // 10 operations per second for 4 s
		} else {
			w.add(ms(100 * i))
		}
	}
	other.add(ms(6100)) // after an empty window
	w.merge(other)
	got := w.rates(ms(7500)) // the last window is measured from 4.0 s
	want := []float64{10, 10, 10, 10, 10, 1 / 2.1}
	if len(got) != len(want) {
		t.Fatalf("rates = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("rates = %v, want %v", got, want)
		}
	}
	// A phase shorter than one window reports its overall rate.
	var short windows
	for i := 0; i < 3; i++ {
		short.add(ms(100 * i))
	}
	if got := short.rates(ms(500)); len(got) != 1 || got[0] != 6 {
		t.Errorf("short phase: %v, want [6]", got)
	}
}

func TestHistPercentilesWithinABucket(t *testing.T) {
	var a, b hist
	for i := 1; i <= 1000; i++ {
		if i%2 == 0 {
			a.add(float64(i))
		} else {
			b.add(float64(i))
		}
	}
	a.merge(&b)
	s := a.summary()
	near := func(got, want float64) bool { return math.Abs(got-want) <= want*0.001 }
	if s.n != 1000 || s.tailPct != 99 || !near(s.tail, 990) || !near(s.p50, 500) {
		t.Errorf("summary = %+v, want p99 990 and p50 500 within 0.1%%", s)
	}
	if got := a.percentile(100); !near(got, 1000) {
		t.Errorf("p100 = %v, want 1000", got)
	}
	var empty hist
	if empty.percentile(50) != 0 {
		t.Error("empty histogram has a percentile")
	}
}

func TestSeededInputsRepeatAndVary(t *testing.T) {
	if !reflect.DeepEqual(genSources(7, 1, 5), genSources(7, 1, 5)) {
		t.Error("genSources differs for equal seeds")
	}
	a, b := strings.Join(genSources(7, 1, 5), ""), strings.Join(genSources(8, 1, 5), "")
	if a == b {
		t.Error("genSources equal for different seeds")
	}
	if strings.Join(genSources(7, 2, 5), "") == a {
		t.Error("genSources streams of one seed coincide")
	}
	for seed := int64(1); seed <= 20; seed++ {
		draw := execDraw(seed)
		if !reflect.DeepEqual(draw, execDraw(seed)) || !reflect.DeepEqual(analyzeSpecDraw(seed), analyzeSpecDraw(seed)) {
			t.Fatalf("seed %d: draw differs between calls", seed)
		}
		if reflect.DeepEqual(draw, execDraw(seed+1)) {
			t.Errorf("seeds %d and %d draw the same exec programs", seed, seed+1)
		}
		if len(draw) != len(execAlways)+execDrawn {
			t.Errorf("seed %d: %d programs", seed, len(draw))
		}
		for _, must := range []string{"cactusADM", "lbm", "gobmk", "mcf"} {
			if !contains(draw, must) {
				t.Errorf("seed %d: draw lacks %s", seed, must)
			}
		}
	}
}

var validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesUseTheCharset(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName.MatchString(d.Name) {
			t.Errorf("bad metric name %q", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if !validUnit.MatchString(d.Unit) {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: direction %q", d.Name, d.Better)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "a:b", strings.Repeat("a", 65)} {
		if validName.MatchString(bad) {
			t.Errorf("validName accepts %q", bad)
		}
	}
	for _, good := range []string{"setup_s", "dbm.cycles.mem-check", "9x", strings.Repeat("a", 64)} {
		if !validName.MatchString(good) {
			t.Errorf("validName rejects %q", good)
		}
	}
}

// The repository's BENCHMARK.json must list exactly the metrics this
// program reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, reported %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
