// Package diag turns raw sanitizer trap reports into structured,
// serialisable, symbolized violation diagnostics — the detection-side
// counterpart of internal/telemetry's serving-side traces. Every trap
// family (JASan redzone checks, JMSan definedness checks, JTSan
// generation checks and quarantine-time frees, JCFI edge checks) yields a
// Violation record carrying the tool, a CWE class, the trapping PC
// symbolized to function+offset through the module symbol table, the
// access address and width, the shadow or generation state that fired,
// the originating rule ID and cost center, and the active trace/span ID —
// so a fleet operator can walk from a Prometheus exemplar to a trace to
// the exact check that fired, and harness oracles can assert on fields
// instead of panic-string matching.
//
// Collection is strictly pull-based and post-run: the trap handlers keep
// their existing per-tool Report structs and each tool converts them
// afterwards (Finder), so runs without diagnostics enabled execute bit-identically
// (the PR 5 invariant extends to this package).
package diag

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Violation is one structured, deduplicated sanitizer finding.
type Violation struct {
	// ID is the content hash of the identity fields (everything except
	// the trace/span IDs and Count): two runs of the same binary hitting
	// the same bug produce the same ID.
	ID string `json:"id"`
	// Tool is the reporting sanitizer: "jasan", "jmsan", "jtsan", "jcfi".
	Tool string `json:"tool"`
	// Kind is the tool's violation class, e.g. "heap-buffer-overflow",
	// "uninitialized-read", "use-after-free", "forward-edge".
	Kind string `json:"kind"`
	// CWE is the Common Weakness Enumeration class for Kind ("" when
	// unmapped).
	CWE string `json:"cwe,omitempty"`
	// PC is the run-time address of the trapping check.
	PC uint64 `json:"pc"`
	// Module/Func/FuncOff symbolize PC against the loaded image: the
	// containing module, the enclosing function (from the module symbol
	// table at its symbolization level) and PC's offset into it. Module
	// is "" when PC resolves to no loaded module, Func when the module's
	// symbol table has no covering function symbol.
	Module  string `json:"module,omitempty"`
	Func    string `json:"func,omitempty"`
	FuncOff uint64 `json:"func_off,omitempty"`
	// Addr is the faulting data address (access target, freed pointer;
	// 0 when not applicable).
	Addr uint64 `json:"addr,omitempty"`
	// Width is the access width in bytes (0 for free-time and
	// control-flow violations).
	Width int `json:"width,omitempty"`
	// Shadow is the JASan shadow byte that fired (0 otherwise).
	Shadow uint8 `json:"shadow,omitempty"`
	// Gen is the JTSan chunk generation at report time (0 otherwise).
	Gen uint64 `json:"gen,omitempty"`
	// Object is the base address of the heap object the violation refers
	// to (0 when unattributable).
	Object uint64 `json:"object,omitempty"`
	// Target is the offending control-transfer target (JCFI only).
	Target uint64 `json:"target,omitempty"`
	// Rule is the rewrite-rule ID whose planted check fired, in
	// rules.ID.String() form (e.g. "MEM_ACCESS", "MEM_GEN_CHECK").
	Rule string `json:"rule,omitempty"`
	// CostCenter is the telemetry cost center the check's cycles charge
	// to (e.g. "mem-check", "gen-check").
	CostCenter string `json:"cost_center,omitempty"`
	// TraceID/SpanID tie the violation to the distributed trace active
	// when it was collected ("" outside a traced request).
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	// Count is how many raw reports deduplicated into this record.
	Count uint64 `json:"count"`
	// Line is the reporting tool's own one-line rendering of the raw
	// report (jrun's default output). Not serialised, not identity.
	Line string `json:"-"`
}

// cweByKind maps tool violation classes to CWE identifiers.
var cweByKind = map[string]string{
	"heap-buffer-overflow":     "CWE-122",
	"partial-granule-overflow": "CWE-122",
	"stack-canary-overwrite":   "CWE-121",
	"heap-use-after-free":      "CWE-416",
	"unknown-poison":           "CWE-119",
	"uninitialized-read":       "CWE-457",
	"use-after-free":           "CWE-416",
	"double-free":              "CWE-415",
	"invalid-free":             "CWE-590",
	"forward-edge":             "CWE-691",
	"return-mismatch":          "CWE-691",
}

// CWEForKind returns the CWE class for a violation kind ("" if unmapped).
func CWEForKind(kind string) string { return cweByKind[kind] }

// hashID computes the violation's content ID: a 16-hex-character prefix of
// the SHA-256 over every identity field, excluding the trace/span IDs and
// the dedup count (the same bug under a different request must collapse to
// the same record).
func hashID(v *Violation) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%s\x00%s\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%s\x00",
		v.Tool, v.Kind, v.PC, v.Module, v.Func, v.FuncOff,
		v.Addr, v.Width, v.Shadow, v.Gen, v.Object, v.Target, v.Rule)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// MaxRecords bounds the distinct records one Log keeps, so a daemon-wide
// log fed by untrusted programs cannot grow without limit.
const MaxRecords = 4096

// Log accumulates violations with content-hash deduplication. Safe for
// concurrent use. A nil Log ignores writes and reads as empty, so serving
// paths can record unconditionally. Once MaxRecords distinct records are
// kept, repeats of a kept record still count, and reports of new records
// are only counted (Dropped).
type Log struct {
	mu      sync.Mutex
	byID    map[string]*Violation
	dropped uint64
}

// NewLog returns an empty violation log.
func NewLog() *Log { return &Log{byID: map[string]*Violation{}} }

// Add records v, deduplicating by content hash: a repeat increments the
// existing record's Count and keeps the first-seen trace binding. v.ID and
// v.CWE are (re)computed here; v.Count of 0 counts as 1.
func (l *Log) Add(v Violation) {
	if l == nil {
		return
	}
	if v.Count == 0 {
		v.Count = 1
	}
	if v.CWE == "" {
		v.CWE = CWEForKind(v.Kind)
	}
	v.ID = hashID(&v)
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.byID[v.ID]; ok {
		prev.Count += v.Count
		return
	}
	if len(l.byID) >= MaxRecords {
		l.dropped += v.Count
		return
	}
	l.byID[v.ID] = &v
}

// Dropped returns the number of reports not stored because their record
// was new while the log already held MaxRecords records.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Len returns the number of distinct (deduplicated) violations.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.byID)
}

// Total returns the total raw report count across all kept records.
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var n uint64
	for _, v := range l.byID {
		n += v.Count
	}
	return n
}

// Entries returns the deduplicated violations in byte-stable order:
// (Tool, Kind, PC, Addr, ID) ascending. The records are copies.
func (l *Log) Entries() []Violation {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Violation, 0, len(l.byID))
	for _, v := range l.byID {
		out = append(out, *v)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Tool != b.Tool {
			return a.Tool < b.Tool
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return a.ID < b.ID
	})
	return out
}

// MarshalJSON renders the log as the sorted Entries array, so serialising
// the same set of violations always produces identical bytes.
func (l *Log) MarshalJSON() ([]byte, error) {
	entries := l.Entries()
	if entries == nil {
		entries = []Violation{}
	}
	return json.Marshal(entries)
}
