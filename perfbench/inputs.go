package main

import (
	"fmt"
	"math/rand"

	"repro/internal/fuzz/gen"
)

// execAlways are the spec programs every exec draw runs: the two
// discovery-heavy programs (cactusADM dlopens its solver, lbm jumps
// through a computed goto), the two that free memory and so reach JTSan's
// quarantine (gobmk, mcf), and every other program under one million
// native instructions. Together they cost little host time but carry
// nearly all of the suite's spread in overhead (3.4x to 17.8x under
// comprehensive), so drawing among them would make the seed, not the
// code, decide the figures.
var execAlways = []string{
	"cactusADM", "lbm", "gobmk", "mcf",
	"perlbench", "bzip2", "gcc", "sjeng", "h264ref", "omnetpp", "xalancbmk", "dealII",
}

// execPool are the mid-size programs (1M to 5M native instructions) the
// seed draws execDrawn of. calculix (8.9M) is left out: its cells alone
// would outlast a round.
var execPool = []string{
	"hmmer", "libquantum", "astar", "bwaves", "gamess", "milc", "zeusmp", "gromacs",
	"leslie3d", "namd", "soplex", "povray", "GemsFDTD", "tonto", "sphinx3",
}

const execDrawn = 2

// execDraw returns the seed's exec programs in run order.
func execDraw(seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	out := append([]string(nil), execAlways...)
	for _, i := range r.Perm(len(execPool))[:execDrawn] {
		out = append(out, execPool[i])
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// analyzeSpecDraw returns the seed's spec programs for the analyze
// workload: one from each group, so every draw holds a discovery-heavy
// program, a program with a hand-written assembly module, and a mix of
// C, C++ and Fortran-modelled code.
func analyzeSpecDraw(seed int64) []string {
	groups := [][]string{
		{"cactusADM", "lbm"},
		{"gamess", "zeusmp"},
		{"perlbench", "gcc", "mcf", "gobmk", "sjeng", "h264ref"},
		{"omnetpp", "xalancbmk", "dealII", "astar", "soplex", "povray"},
		{"bwaves", "milc", "namd", "leslie3d", "GemsFDTD", "tonto", "sphinx3"},
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []string
	for _, g := range groups {
		out = append(out, g[r.Intn(len(g))])
	}
	return out
}

// genSources returns n generated MiniC programs for the seed: safe
// programs from the fuzzer's grammar, each a single module linking only
// libj. stream separates the independent sets one workload draws.
func genSources(seed int64, stream, n int) []string {
	r := rand.New(rand.NewSource(seed*1000003 + int64(stream)))
	out := make([]string, n)
	for i := range out {
		out[i] = gen.New(r).Render()
	}
	return out
}

// moduleName names the i-th generated module of a stream.
func moduleName(prefix string, i int) string { return fmt.Sprintf("%s%04d", prefix, i) }
