package main

import (
	"fmt"
	"io"
	"regexp"
	"sort"

	"repro/internal/telemetry"
)

// metricDef describes one reported metric. Moves names the end-to-end
// metric and workload a change in this per-layer metric should move; on
// every workload it does not name, the prediction is no change.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Moves  string
}

// costCenters are the comprehensive run's cycle attribution buckets.
var costCenters = []telemetry.CostCenter{telemetry.CCApp, telemetry.CCMemCheck,
	telemetry.CCCanary, telemetry.CCDefStore, telemetry.CCDefCheck, telemetry.CCGenCheck,
	telemetry.CCQuarantine, telemetry.CCCFICheck, telemetry.CCShadowStack, telemetry.CCDispatch}

// layers are the packages the traced run attributes self time to, plus
// "client" (the benchmark's HTTP client) and "unattributed" (time no span
// covers: the benchmark's own bookkeeping and checks).
var layers = []string{"cc", "obj", "loader", "vm", "dbm", "core", "cfg", "analysis",
	"jasan", "jmsan", "jtsan", "jcfi", "tools", "vsa", "rules", "jlint", "rewrite",
	"anserve", "client", "unattributed"}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. What one operation is depends on the
// workload; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"peak_rss_mb", "MB", "lower", ""},
	{"throughput", "op/s", "higher", ""},
	{"latency_p50_ms", "ms", "lower", ""},
	{"latency_tail_ms", "ms", "lower", ""},
}

// perLayer are the metrics the traced run reports. Every workload reports
// all of them; a layer the workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better, moves string) {
		out = append(out, metricDef{name, unit, better, moves})
	}
	add("fail_ratio", "ratio", "lower", "correct on all workloads")
	add("vm.native_s", "s", "lower", "throughput on exec")
	add("vm.native_mips", "Minstr/s", "higher", "throughput on exec")
	for _, s := range schemes {
		add("sim_slowdown."+s.name, "x", "lower", "the paper's metric on exec (deterministic)")
	}
	for _, s := range schemes {
		add("core.run_s."+s.name, "s", "lower", "throughput on exec")
		add("dbm.mips."+s.name, "Minstr/s", "higher", "throughput on exec")
		add("vm.instr_ratio."+s.name, "x", "lower", "sim_slowdown."+s.name+" on exec")
	}
	for _, c := range costCenters {
		add("dbm.cycles."+c.String(), "count", "lower", "sim_slowdown.comprehensive on exec")
	}
	for _, n := range []string{"dbm.blocks_built", "dbm.block_execs", "dbm.indirect_dispatch", "dbm.flushed_blocks"} {
		add(n, "count", "lower", "throughput on exec, latency_p50_ms on serve")
	}
	add("dbm.cache_hit_ratio", "ratio", "higher", "throughput on exec, latency_p50_ms on serve")
	add("loader.load_ms", "ms", "lower", "latency_p50_ms on serve (little on exec)")
	add("anserve.warm_lookup_ms", "ms", "lower", "stays near 0 on exec")
	add("obj.unmarshal_us", "us", "lower", "throughput on analyze")
	for _, t := range analyzeTools {
		moves := "throughput and latency_tail_ms on analyze"
		if t.name == serveTool {
			moves += "; latency_tail_ms on serve"
		}
		add("core.analyze_ms."+t.name, "ms", "lower", moves)
	}
	add("vsa.verify_ms", "ms", "lower", "throughput and latency_tail_ms on analyze")
	add("vsa.claims", "count", "higher", "throughput on analyze")
	add("jlint.analyze_ms", "ms", "lower", "throughput and latency_tail_ms on analyze")
	add("rewrite.capture_ms", "ms", "lower", "throughput and latency_tail_ms on analyze")
	add("rewrite.apply_ms", "ms", "lower", "throughput and latency_tail_ms on analyze")
	add("rewrite.verify_ms", "ms", "lower", "throughput and latency_tail_ms on analyze")
	add("rewrite.refusals", "count", "lower", "throughput on analyze")
	add("rules.marshal_us", "us", "lower", "throughput on analyze")
	add("rules.unmarshal_us", "us", "lower", "throughput on analyze")
	add("rules.bytes", "count", "lower", "throughput on analyze")
	add("cc.compile_ms", "ms", "lower", "setup_s on all workloads")
	add("serve.hit_ms", "ms", "lower", "latency_p50_ms on serve")
	add("serve.miss_ms", "ms", "lower", "latency_tail_ms on serve")
	add("serve.run_ms", "ms", "lower", "latency_tail_ms on serve")
	add("anserve.hit_ratio", "ratio", "higher", "throughput and latency on serve")
	add("anserve.analysis_s", "s", "lower", "throughput and latency on serve")
	add("anserve.rejected", "count", "lower", "fail_ratio on serve")
	add("anserve.coalesced", "count", "higher", "throughput on serve")
	add("anserve.cache_evictions", "count", "lower", "throughput on serve")
	for _, l := range layers {
		add("self_s."+l, "s", "lower", "the workload's throughput, in proportion to its share")
	}
	for _, l := range layers {
		if l != "unattributed" {
			add("calls."+l, "count", "lower", "")
		}
	}
	add("trace.overhead_pct", "%", "lower", "")
	return out
}

// validName is the metric-name charset: a letter or digit first, then
// letters, digits, '_', '.' and '-', at most 64 in all.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printTable writes every metric of defs by name with its value, unit and
// direction, then any notes.
func printTable(w io.Writer, defs []metricDef, vals map[string]float64, notes []string) {
	for _, d := range defs {
		line := fmt.Sprintf("%-34s %16.6g %-9s %-6s is better", d.Name, vals[d.Name], d.Unit, d.Better)
		if d.Moves != "" {
			line += "  (moves " + d.Moves + ")"
		}
		fmt.Fprintln(w, line)
	}
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintln(w, "note:", n)
	}
}
