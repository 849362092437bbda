// Command perfbench is the repository's benchmark. It drives the Janitizer
// packages from outside through three seeded workloads — exec (sanitized
// execution), analyze (the cold static pipeline) and serve (the analysis
// daemon under closed-loop load) — and prints every metric by name with
// its unit and direction, then one JSON result line. See README.md.
//
//	perfbench --workload exec --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one cold set-up does not decide the figure.
const setupReps = 5

// warmup is the least time a run spends on untimed work before measuring.
const warmup = 2 * time.Second

// phase is what one timed stretch of a workload measured.
type phase struct {
	elapsed time.Duration
	// rates holds the throughput of each round (exec) or of each block
	// of about a second (analyze, serve), in the workload's operations
	// per second; the phase reports their median, so a burst of
	// contention from outside moves it little.
	rates []float64
	// lat is the phase's latency distribution.
	lat latencySummary
	// units is the number of rounds (or kilo-requests) the per-layer
	// time and count metrics are divided by.
	units float64
	// layer holds per-layer metrics measured with tracing off.
	layer map[string]float64
	// actors is how many goroutines drove the work.
	actors int
}

// instance is a workload after set-up.
type instance interface {
	// run drives the workload for at least d, recording spans into tr
	// when it is non-nil. Every call completes at least one round.
	run(d time.Duration, tr *Tracer) (*phase, error)
	// finish runs the checks kept out of the timed phases and adds any
	// metrics or notes they produce.
	finish(trace bool, out map[string]float64) ([]string, error)
	// counts returns the operations attempted and failed so far.
	counts() (attempted, failed int64)
	close()
}

// workloads maps a workload name to its set-up function.
var workloads = map[string]func(seed int64, cc *ccTimer) (instance, error){
	"exec":    setupExec,
	"analyze": setupAnalyze,
	"serve":   setupServe,
}

// ops says what one operation of each workload is: throughput counts
// them per second, and latency is the host time one of them takes.
var ops = map[string]string{
	"exec":    "one op is 10^6 native instructions of a program; a run's latency is its host time divided by its native Minstr",
	"analyze": "one op is one module through the whole pipeline",
	"serve":   "one op is one request, timed at the client",
}

// tally counts attempted and failed operations; safe for concurrent use.
type tally struct{ attempted, failed atomic.Int64 }

func (t *tally) ok(good bool) {
	t.attempted.Add(1)
	if !good {
		t.failed.Add(1)
	}
}

func (t *tally) counts() (int64, int64) { return t.attempted.Load(), t.failed.Load() }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: exec, analyze or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload exec|analyze|serve, --seconds > 0, --trace 0|1")
		return 2
	}
	vals, notes, attempted, failed, err := measure(setup, *seed,
		time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	correct := failed == 0 && attempted > 0
	printTable(stdout, defs, vals, append([]string{ops[*name]}, notes...))
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed their checks\n", failed, attempted)
		return 1
	}
	return 0
}

// measure sets the workload up setupReps times, warms it up, runs the
// timed phase and the checks, and returns every metric it measured.
func measure(setup func(int64, *ccTimer) (instance, error), seed int64,
	d time.Duration, trace bool) (map[string]float64, []string, int64, int64, error) {

	vals := map[string]float64{}
	var setups []float64
	var inst instance
	cc := &ccTimer{}
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		// Each set-up starts from a collected heap, so one rep does not
		// pay for the garbage of the one before.
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = setup(seed, cc)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	vals["setup_s"] = median(setups)
	setupPeak := peakRSSMB()
	vals["cc.compile_ms"] = cc.meanMS()

	if _, err := inst.run(warmup, nil); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("warm-up: %w", err)
	}
	var notes []string
	if !trace {
		rss := sampleRSS()
		ph, err := inst.run(d, nil)
		peaks := rss.done()
		if err != nil {
			return nil, nil, 0, 0, err
		}
		vals["peak_rss_mb"] = max(setupPeak, median(peaks))
		notes = append(notes, fmt.Sprintf("peak_rss_mb: %.1f MB at set-up; %.1f MB, the median of %d per-second peaks, while measuring",
			setupPeak, median(peaks), len(peaks)))
		vals["throughput"] = median(ph.rates)
		vals["latency_p50_ms"] = ph.lat.p50
		vals["latency_tail_ms"] = ph.lat.tail
		notes = append(notes, fmt.Sprintf("latency_tail_ms is p%g of %d samples; throughput is the median of %d windows over %.2fs",
			ph.lat.tailPct, ph.lat.n, len(ph.rates), ph.elapsed.Seconds()))
	} else {
		plain, err := inst.run(d/2, nil)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		tr := newTracer()
		traced, err := inst.run(d/2, tr)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		for k, v := range plain.layer {
			vals[k] = v
		}
		notes = append(notes, traceMetrics(vals, tr.Spans(), plain, traced)...)
	}
	more, err := inst.finish(trace, vals)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	notes = append(notes, more...)
	attempted, failed := inst.counts()
	if attempted > 0 {
		vals["fail_ratio"] = float64(failed) / float64(attempted)
	}
	return vals, notes, attempted, failed, nil
}

// traceMetrics turns the traced phase's spans into per-layer self time
// and call counts per round, the unattributed remainder and the tracing
// overhead against the untraced phase.
func traceMetrics(vals map[string]float64, spans []Span, plain, traced *phase) []string {
	per, roots := selfTimes(spans)
	for _, l := range layers {
		vals["self_s."+l] = per[l].Self.Seconds() / traced.units
		if l != "unattributed" {
			vals["calls."+l] = float64(per[l].Calls) / traced.units
		}
	}
	driven := time.Duration(traced.actors) * traced.elapsed
	vals["self_s.unattributed"] = (driven - roots).Seconds() / traced.units
	perUnitPlain := plain.elapsed.Seconds() / plain.units
	perUnitTraced := traced.elapsed.Seconds() / traced.units
	vals["trace.overhead_pct"] = (perUnitTraced/perUnitPlain - 1) * 100
	var unknown []string
	for l := range per {
		if !contains(layers, l) {
			unknown = append(unknown, l)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return []string{"spans in unlisted layers: " + strings.Join(unknown, ", ")}
	}
	return []string{fmt.Sprintf("traced %d spans over %.2fs; untraced %.4fs and traced %.4fs per unit",
		len(spans), traced.elapsed.Seconds(), perUnitPlain, perUnitTraced)}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// rssEvery is how often sampleRSS reads the resident set size.
const rssEvery = 20 * time.Millisecond

// rssSampler reads the process's resident set size every rssEvery and
// keeps the highest reading of each second. A phase's memory is the
// median of those peaks: the whole run's peak would rest on the single
// garbage-collection cycle that overshot most.
type rssSampler struct {
	stop  chan struct{}
	peaks chan []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peaks: make(chan []float64, 1)}
	go func() {
		start := time.Now()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var peaks []float64
		high := rssMB()
		for {
			select {
			case <-s.stop:
				if len(peaks) == 0 {
					peaks = append(peaks, high)
				}
				s.peaks <- peaks
				return
			case now := <-tick.C:
				if now.Sub(start) >= time.Duration(len(peaks)+1)*time.Second {
					peaks = append(peaks, high)
					high = 0
				}
				high = max(high, rssMB())
			}
		}
	}()
	return s
}

// done stops the sampler and returns the peak of every whole second (of
// the whole phase, if it was shorter).
func (s *rssSampler) done() []float64 {
	close(s.stop)
	return <-s.peaks
}

// rssMB returns the process's resident set size in megabytes.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if f := strings.Fields(string(b)); err == nil && len(f) >= 2 {
		if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
			return pages * float64(os.Getpagesize()) / (1 << 20)
		}
	}
	return peakRSSMB()
}

// peakRSSMB returns the process's peak resident set size in megabytes.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
