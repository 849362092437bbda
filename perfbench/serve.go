package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anserve"
	"repro/internal/core"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/telemetry"
)

// The serve workload's corpus and request mix. The corpus size, the
// hot-read skew and the analysis tool follow cmd/jload, the repository's
// load generator (its -modules, -zipf and hot/cold mix defaults); the
// 70/15/15 split and the /run tools are this workload's own.
const (
	serveClients  = 2   // closed-loop clients, one per CPU
	serveCorpus   = 32  // generated modules, as jload's -modules 32
	serveZipfS    = 1.2 // hot-read skew, as jload's -zipf 1.2
	serveTool     = "jasan"
	serveHitShare = 0.70
	serveMissEnd  = 0.85 // hit share + miss share; the rest is POST /run
	// serveCacheBytes is the daemon's memory-tier budget: the warm set
	// and about 2,000 never-seen rule files. Warm-up fills it, so memory
	// in the timed phases does not grow with the number of requests.
	serveCacheBytes = 8 << 20
)

var serveRunTools = []string{"jasan", "comprehensive"}

// servedMod is one corpus module: a warm /analyze entry, the base of
// never-seen misses and a /run program.
type servedMod struct {
	mod  *obj.Module
	body []byte // serialized module
	want []byte // local core.AnalyzeModule + Marshal under serveTool
	exit int64  // native exit status
	out  string // native output
}

// missRecord is one /analyze of a never-seen module, checked after the
// timed phase against a local analysis. It is kept small, 12 bytes a
// miss, because the records are the only state that grows with the
// number of requests.
type missRecord struct {
	seq uint32 // the module is moduleName("miss", seq), renamed from corpus[seq%serveCorpus]
	got uint64 // the first 8 bytes of the reply body's SHA-256
}

// bodySum is the part of a body's SHA-256 a missRecord keeps.
func bodySum(b []byte) uint64 {
	h := sha256.Sum256(b)
	return binary.LittleEndian.Uint64(h[:8])
}

// serveInst is the serve workload: an in-process janitizerd on a loopback
// listener, driven closed-loop.
type serveInst struct {
	tally
	seed   int64
	base   string
	daemon *anserve.Daemon
	served chan error
	client *http.Client
	corpus []servedMod
	// full is set once the daemon's rule cache has filled and evicted.
	full    bool
	missSeq atomic.Uint32
	phases  int64
	// lastRequests is how many requests the last untraced phase served.
	lastRequests int

	mu       sync.Mutex
	recorded []missRecord
}

func setupServe(seed int64, cc *ccTimer) (instance, error) {
	s := &serveInst{seed: seed}
	lj, err := libj.Module()
	if err != nil {
		return nil, err
	}
	tool := anserve.DefaultTools()[serveTool]
	for i, src := range genSources(seed, 1, serveCorpus) {
		mod, err := cc.compile(src, ccOptions(moduleName("srv", i)))
		if err != nil {
			return nil, fmt.Errorf("serve: %s: %w", moduleName("srv", i), err)
		}
		f, err := core.AnalyzeModule(mod, tool())
		if err != nil {
			return nil, fmt.Errorf("serve: reference %s: %w", mod.Name, err)
		}
		var out bytes.Buffer
		m := newMachine(&out)
		m.MaxInstrs = anserve.DefaultRunMaxInstrs
		proc := loader.NewProcess(m, loader.Registry{libj.Name: lj})
		lm, err := proc.LoadProgram(mod)
		if err != nil {
			return nil, fmt.Errorf("serve: %s: load: %w", mod.Name, err)
		}
		if err := m.Run(lm.RuntimeAddr(mod.Entry)); err != nil {
			return nil, fmt.Errorf("serve: %s: native run: %w", mod.Name, err)
		}
		s.corpus = append(s.corpus, servedMod{mod: mod, body: mod.Marshal(), want: f.Marshal(),
			exit: m.ExitStatus, out: out.String()})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: listen: %w", err)
	}
	s.daemon = anserve.NewDaemon(anserve.New(anserve.Config{Workers: 2, MemCacheBytes: serveCacheBytes}),
		anserve.DefaultTools())
	s.served = make(chan error, 1)
	go func() { s.served <- s.daemon.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients, DisableCompression: true}}

	// Fill the warm corpus through the daemon: each entry is a miss now
	// and a cache read in the timed phase.
	for _, c := range s.corpus {
		got, tier, err := s.analyze(c.body, "")
		if err != nil {
			s.close()
			return nil, err
		}
		if !bytes.Equal(got, c.want) || tier != "miss" {
			s.close()
			return nil, fmt.Errorf("serve: warm fill %s: tier %q, body equal %v", c.mod.Name, tier,
				bytes.Equal(got, c.want))
		}
	}
	return s, nil
}

func (s *serveInst) close() {
	if s.daemon == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Every client has returned, so there is nothing in flight to drain;
	// Serve's result after a shutdown carries no information either.
	_ = s.daemon.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	s.daemon = nil
}

// analyze POSTs a module to /analyze under serveTool and returns the body
// and X-Cache tier.
func (s *serveInst) analyze(body []byte, traceparent string) ([]byte, string, error) {
	resp, err := s.post("/analyze?tool="+serveTool, body, traceparent)
	if err != nil {
		return nil, "", err
	}
	return resp.body, resp.header.Get("X-Cache"), nil
}

type reply struct {
	header http.Header
	body   []byte
}

func (s *serveInst) post(path string, body []byte, traceparent string) (*reply, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if traceparent != "" {
		req.Header.Set(telemetry.TraceparentHeader, traceparent)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("serve: POST %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: POST %s: status %d: %s",
			path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return &reply{resp.Header, b}, nil
}

// clientResult is what one closed-loop client measured. Its size does not
// grow with the number of requests, so neither does the process's memory.
type clientResult struct {
	all, hit, miss, run hist
	done                windows
}

func (s *serveInst) run(d time.Duration, tr *Tracer) (*phase, error) {
	ph, err := s.phase(d, tr)
	// The first run warms up. It goes on until the rule cache is full and
	// has begun to evict, so that peak_rss_mb measures the daemon with a
	// full cache, whatever the request rate.
	for err == nil && !s.full {
		var m map[string]float64
		if m, err = s.scrape(); err != nil {
			break
		}
		if s.full = m["janitizer_rule_cache_evictions_total"] > 0; !s.full {
			ph, err = s.phase(d, tr)
		}
	}
	return ph, err
}

// phase drives the daemon with every client for d and gathers what they
// measured.
func (s *serveInst) phase(d time.Duration, tr *Tracer) (*phase, error) {
	var st *telemetry.Tracer
	ring := 4*s.lastRequests + 4096
	if tr != nil {
		// The daemon keeps its finished root traces in a ring. Size it
		// for this phase's requests, each with up to three roots (a
		// /run adds loader.load and dbm.run), taking the last untraced
		// phase of the same length as a bound.
		st = telemetry.NewTracer(ring)
		telemetry.SetTracer(st)
		defer telemetry.SetTracer(nil)
	}
	before, err := s.scrape()
	if err != nil {
		return nil, err
	}
	s.phases++
	start := time.Now()
	deadline := start.Add(d)
	results := make([]clientResult, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = s.client1(c, start, deadline, tr)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, err := s.scrape()
	if err != nil {
		return nil, err
	}
	var res clientResult
	for _, r := range results {
		res.done.merge(r.done)
		res.all.merge(&r.all)
		res.hit.merge(&r.hit)
		res.miss.merge(&r.miss)
		res.run.merge(&r.run)
	}
	if tr == nil {
		s.lastRequests = res.all.n
	}
	kreq := float64(res.all.n) / 1000
	delta := func(name string) float64 { return after[name] - before[name] }
	ph := &phase{elapsed: elapsed, rates: res.done.rates(elapsed), lat: res.all.summary(), units: kreq,
		actors: serveClients, layer: map[string]float64{
			"serve.hit_ms":            res.hit.percentile(50),
			"serve.miss_ms":           res.miss.percentile(50),
			"serve.run_ms":            res.run.percentile(50),
			"anserve.hit_ratio":       delta("janitizer_analyze_cache_hits_total") / delta("janitizer_analyze_submitted_total"),
			"anserve.analysis_s":      delta("janitizer_analysis_duration_seconds_sum") / kreq,
			"anserve.rejected":        delta("janitizer_analyze_rejected_total") / kreq,
			"anserve.coalesced":       delta("janitizer_analyze_coalesced_total") / kreq,
			"anserve.cache_evictions": delta("janitizer_rule_cache_evictions_total") / kreq,
		}}
	if st != nil {
		roots := st.Recent()
		if len(roots) >= ring {
			// A full ring has dropped its oldest traces, so the layer
			// figures would be undercounted.
			return nil, fmt.Errorf("serve: the daemon's trace ring filled (%d root traces); spans were dropped", len(roots))
		}
		harvest(tr, roots)
	}
	return ph, nil
}

// client1 is one closed-loop client: it sends its next request only after
// the previous reply, until the deadline.
func (s *serveInst) client1(c int, start, deadline time.Time, tr *Tracer) clientResult {
	r := rand.New(rand.NewSource(s.seed*7919 + int64(c) + 100*s.phases))
	z := rand.NewZipf(r, serveZipfS, 1, uint64(len(s.corpus)-1))
	var res clientResult
	for time.Now().Before(deadline) {
		u := r.Float64()
		traceparent, spanHex := "", ""
		if tr != nil {
			spanHex = fmt.Sprintf("%016x", r.Uint64()|1)
			traceparent = fmt.Sprintf("00-%016x%016x-%s-01", r.Uint64()|1, r.Uint64(), spanHex)
		}
		var lat *hist
		var name string
		var good, checkLater bool
		var t0 time.Time
		switch {
		case u < serveHitShare:
			lat, name = &res.hit, "client.analyze"
			h := &s.corpus[z.Uint64()]
			t0 = time.Now()
			got, tier, err := s.analyze(h.body, traceparent)
			good = err == nil && tier == "local" && bytes.Equal(got, h.want)
		case u < serveMissEnd:
			lat, name = &res.miss, "client.analyze"
			seq := uint32(s.missSeq.Add(1))
			body := renamed(s.corpus[seq%serveCorpus].mod, moduleName("miss", int(seq))).Marshal()
			t0 = time.Now()
			got, tier, err := s.analyze(body, traceparent)
			good = err == nil && tier == "miss"
			if good {
				// Counted when its body is checked, after the run.
				checkLater = true
				s.mu.Lock()
				s.recorded = append(s.recorded, missRecord{seq, bodySum(got)})
				s.mu.Unlock()
			}
		default:
			lat, name = &res.run, "client.run"
			p := &s.corpus[r.Intn(len(s.corpus))]
			tool := serveRunTools[r.Intn(len(serveRunTools))]
			t0 = time.Now()
			good = s.runOK(p, tool, traceparent)
		}
		t1 := time.Now()
		if !checkLater {
			s.ok(good)
		}
		ms := t1.Sub(t0).Seconds() * 1000
		lat.add(ms)
		res.all.add(ms)
		res.done.add(t1.Sub(start))
		if tr != nil {
			id := tr.Add(Span{Layer: "client", Name: name, Start: tr.offset(t0), End: tr.offset(t1)})
			tr.linkRemote(spanHex, id)
		}
	}
	return res
}

// renamed returns a copy of mod under a new name: the same code, a new
// content address, so the daemon has never seen it.
func renamed(mod *obj.Module, name string) *obj.Module {
	cp := *mod
	cp.Name = name
	return &cp
}

// runOK posts a /run and checks it against the program's native run.
func (s *serveInst) runOK(p *servedMod, tool, traceparent string) bool {
	resp, err := s.post("/run?tool="+tool, p.body, traceparent)
	if err != nil {
		return false
	}
	var rr anserve.RunResponse
	if err := json.Unmarshal(resp.body, &rr); err != nil {
		return false
	}
	return rr.RunError == "" && rr.ExitStatus == p.exit && rr.Output == p.out && len(rr.Violations) == 0
}

// scrape reads the daemon's /metrics and sums every series by name.
func (s *serveInst) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("serve: scrape: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("serve: scrape: %w", err)
	}
	samples, err := telemetry.ParsePrometheus(b)
	if err != nil {
		return nil, fmt.Errorf("serve: scrape: %w", err)
	}
	out := map[string]float64{}
	for _, smp := range samples {
		out[smp.Name] += smp.Value
	}
	return out, nil
}

// finish checks every never-seen module's reply against a local analysis
// of the same (module, tool), two at a time.
func (s *serveInst) finish(bool, map[string]float64) ([]string, error) {
	tool := anserve.DefaultTools()[serveTool]
	s.mu.Lock()
	recs := s.recorded
	s.recorded = nil
	s.mu.Unlock()
	next := atomic.Int64{}
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(recs) {
					return
				}
				rec := recs[i]
				mod := renamed(s.corpus[rec.seq%serveCorpus].mod, moduleName("miss", int(rec.seq)))
				f, err := core.AnalyzeModule(mod, tool())
				s.ok(err == nil && bodySum(f.Marshal()) == rec.got)
			}
		}()
	}
	wg.Wait()
	return []string{fmt.Sprintf("serve: %d never-seen modules checked against local analysis", len(recs))}, nil
}

// linkRemote remembers which recorded span a W3C span ID stands for, so
// the daemon's spans can be attached under the client call that caused
// them.
func (t *Tracer) linkRemote(spanHex string, id int) {
	if t == nil || spanHex == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.remote == nil {
		t.remote = map[string]int{}
	}
	t.remote[spanHex] = id
}

// serverLayer maps a daemon span name to its layer.
func serverLayer(name string) string {
	switch {
	case strings.HasPrefix(name, "core."):
		return "core"
	case strings.HasPrefix(name, "cfg."):
		return "cfg"
	case strings.HasPrefix(name, "analysis."):
		return "analysis"
	case name == "tool.static-pass":
		return "tools"
	case strings.HasPrefix(name, "dbm."):
		return "dbm"
	case strings.HasPrefix(name, "vm."):
		return "vm"
	case strings.HasPrefix(name, "loader."):
		return "loader"
	}
	return "anserve"
}

// harvest copies the daemon's finished traces into tr. A request's root
// span hangs under the client span that sent it. Spans the program starts
// without a parent (loading and DBM execution inside POST /run) hang under
// the request span whose interval holds them.
func harvest(tr *Tracer, roots []*telemetry.SpanRecord) {
	var add func(rec *telemetry.SpanRecord, parent int) int
	add = func(rec *telemetry.SpanRecord, parent int) int {
		id := tr.Add(Span{Parent: parent, Layer: serverLayer(rec.Name), Name: rec.Name,
			Start: tr.offset(rec.Start), End: tr.offset(rec.Start.Add(rec.Duration))})
		for _, ch := range rec.Children {
			add(ch, id)
		}
		return id
	}
	type interval struct {
		id         int
		start, end time.Time
	}
	var runs []interval
	var orphans []*telemetry.SpanRecord
	for _, rec := range roots {
		tr.mu.Lock()
		parent, ok := tr.remote[rec.ParentID]
		tr.mu.Unlock()
		if !ok {
			orphans = append(orphans, rec)
			continue
		}
		id := add(rec, parent)
		if rec.Name == "http.run" {
			runs = append(runs, interval{id, rec.Start, rec.Start.Add(rec.Duration)})
		}
	}
	for _, rec := range orphans {
		parent := 0
		end := rec.Start.Add(rec.Duration)
		for _, iv := range runs {
			if !rec.Start.Before(iv.start) && !end.After(iv.end) {
				parent = iv.id
				break
			}
		}
		add(rec, parent)
	}
}
