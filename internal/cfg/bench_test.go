package cfg_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/spec"
)

var benchGraph *cfg.Graph

// BenchmarkCFGBuild recovers the CFG of the largest spec module and reports
// modules recovered per second.
func BenchmarkCFGBuild(b *testing.B) {
	mod, err := spec.LargestModule()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := cfg.Build(mod)
		if err != nil {
			b.Fatal(err)
		}
		benchGraph = g
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "modules/s")
}
