package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tailPercentile picks the highest candidate percentile that leaves at
// least ten samples beyond it, so a tail figure never rests on a handful
// of outliers. It returns 0 when even the median has fewer than ten
// samples above it.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// rateWindow is how long each window of a phase's throughput lasts.
const rateWindow = time.Second

// windows counts operation completions in consecutive windows of
// rateWindow from the start of a phase, with each window's last
// completion. Its size grows with the phase's length, not with the number
// of operations.
type windows []window

type window struct {
	n    int
	last time.Duration
}

// add counts an operation completed t after the phase start.
func (w *windows) add(t time.Duration) {
	i := int(t / rateWindow)
	for len(*w) <= i {
		*w = append(*w, window{})
	}
	(*w)[i].n++
	(*w)[i].last = max((*w)[i].last, t)
}

// merge adds o's completions into w.
func (w *windows) merge(o windows) {
	for i, x := range o {
		for len(*w) <= i {
			*w = append(*w, window{})
		}
		(*w)[i].n += x.n
		(*w)[i].last = max((*w)[i].last, x.last)
	}
}

// rates returns one rate for every window that ends within a phase of
// length elapsed and saw a completion: the operations it saw, per second
// since the last completion before it. A phase shorter than one window
// gives its overall rate.
func (w windows) rates(elapsed time.Duration) []float64 {
	var rates []float64
	var total int
	var prev time.Duration
	for i, x := range w {
		total += x.n
		if x.n == 0 {
			continue
		}
		if time.Duration(i+1)*rateWindow <= elapsed && x.last > prev {
			rates = append(rates, float64(x.n)/(x.last-prev).Seconds())
		}
		prev = x.last
	}
	if len(rates) == 0 {
		return []float64{float64(total) / elapsed.Seconds()}
	}
	return rates
}

// hist is a latency histogram whose size does not grow with the number of
// samples. A sample's bucket is its float64 bit pattern cut to
// 52-histShift mantissa bits, a relative width under 0.1%; for positive
// samples the buckets sort as the values do. serve, whose request count
// grows with the program's speed, records into it; exec and analyze keep
// their few thousand samples a run and take exact percentiles.
type hist struct {
	n      int
	counts map[uint64]int
}

const histShift = 42

func (h *hist) add(x float64) {
	if h.counts == nil {
		h.counts = map[uint64]int{}
	}
	h.counts[math.Float64bits(x)>>histShift]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for k, c := range o.counts {
		if h.counts == nil {
			h.counts = map[uint64]int{}
		}
		h.counts[k] += c
	}
	h.n += o.n
}

// percentile returns the nearest-rank p-th percentile, as the middle of
// its bucket; 0 for no samples.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	keys := make([]uint64, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rank := int(math.Ceil(p / 100 * float64(h.n)))
	seen := 0
	for _, k := range keys {
		if seen += h.counts[k]; seen >= rank {
			return math.Float64frombits(k<<histShift | 1<<(histShift-1))
		}
	}
	return math.Float64frombits(keys[len(keys)-1]<<histShift | 1<<(histShift-1))
}

func (h *hist) summary() latencySummary {
	s := latencySummary{n: h.n, p50: h.percentile(50), tailPct: tailPercentile(h.n)}
	if s.tailPct > 0 {
		s.tail = h.percentile(s.tailPct)
	} else {
		s.tail = h.percentile(100)
	}
	return s
}

// latencySummary is a latency distribution reduced to its median and tail.
type latencySummary struct {
	n         int
	p50, tail float64
	tailPct   float64
}

func summarize(ms []float64) latencySummary {
	s := latencySummary{n: len(ms), p50: median(ms), tailPct: tailPercentile(len(ms))}
	if s.tailPct > 0 {
		s.tail = percentile(ms, s.tailPct)
	} else {
		s.tail = percentile(ms, 100)
	}
	return s
}
