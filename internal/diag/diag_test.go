package diag_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/jasan"
	"repro/internal/jcfi"
	"repro/internal/jmsan"
	"repro/internal/jtsan"
	"repro/internal/telemetry"
)

func TestAddDedupAndCount(t *testing.T) {
	log := diag.NewLog()
	v := diag.Violation{Tool: "jasan", Kind: "heap-buffer-overflow", PC: 0x400100, Addr: 0x2000, Width: 1}
	log.Add(v)
	log.Add(v)
	other := v
	other.PC = 0x400104
	log.Add(other)

	if log.Len() != 2 {
		t.Fatalf("Len = %d, want 2", log.Len())
	}
	if log.Total() != 3 {
		t.Fatalf("Total = %d, want 3", log.Total())
	}
	entries := log.Entries()
	if entries[0].Count != 2 || entries[1].Count != 1 {
		t.Fatalf("counts = %d,%d, want 2,1", entries[0].Count, entries[1].Count)
	}
	if entries[0].ID == entries[1].ID || entries[0].ID == "" {
		t.Fatalf("IDs not distinct content hashes: %q %q", entries[0].ID, entries[1].ID)
	}
}

func TestIDStableAcrossTraceBinding(t *testing.T) {
	// The same bug under two different traced requests must collapse into
	// one record keeping the first-seen trace binding.
	log := diag.NewLog()
	v := diag.Violation{Tool: "jtsan", Kind: "use-after-free", PC: 0x40, Addr: 0x99, Gen: 3}
	v.TraceID, v.SpanID = "0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331"
	log.Add(v)
	v.TraceID, v.SpanID = "1af7651916cd43dd8448eb211c80319c", "c7ad6b7169203331"
	log.Add(v)
	entries := log.Entries()
	if len(entries) != 1 || entries[0].Count != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace binding = %q, want first-seen", entries[0].TraceID)
	}
}

func TestCWEMapping(t *testing.T) {
	cases := map[string]string{
		"heap-buffer-overflow":   "CWE-122",
		"stack-canary-overwrite": "CWE-121",
		"uninitialized-read":     "CWE-457",
		"use-after-free":         "CWE-416",
		"double-free":            "CWE-415",
		"invalid-free":           "CWE-590",
		"forward-edge":           "CWE-691",
		"return-mismatch":        "CWE-691",
		"made-up-kind":           "",
	}
	for kind, want := range cases {
		if got := diag.CWEForKind(kind); got != want {
			t.Errorf("diag.CWEForKind(%q) = %q, want %q", kind, got, want)
		}
	}
	log := diag.NewLog()
	log.Add(diag.Violation{Tool: "jmsan", Kind: "uninitialized-read", PC: 1})
	if got := log.Entries()[0].CWE; got != "CWE-457" {
		t.Fatalf("Add did not stamp CWE: %q", got)
	}
}

func TestMarshalByteStable(t *testing.T) {
	mk := func(order []uint64) []byte {
		log := diag.NewLog()
		for _, pc := range order {
			log.Add(diag.Violation{Tool: "jasan", Kind: "heap-buffer-overflow", PC: pc})
			log.Add(diag.Violation{Tool: "jcfi", Kind: "forward-edge", PC: pc, Target: pc + 8})
		}
		b, err := json.Marshal(log)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := mk([]uint64{0x30, 0x10, 0x20})
	b := mk([]uint64{0x20, 0x30, 0x10})
	if string(a) != string(b) {
		t.Fatalf("insertion order leaked into serialisation:\n%s\n%s", a, b)
	}
	var empty *diag.Log
	eb, err := json.Marshal(diag.NewLog())
	if err != nil || string(eb) != "[]" {
		t.Fatalf("empty log marshals %q (%v), want []", eb, err)
	}
	if empty.Len() != 0 || empty.Total() != 0 || empty.Entries() != nil {
		t.Fatal("nil log not inert")
	}
	empty.Add(diag.Violation{Tool: "jasan"}) // must not panic
}

// fakeSym symbolizes every PC to a fixed function.
type fakeSym struct{}

func (fakeSym) Symbolize(pc uint64) (string, string, uint64, bool) {
	return "mod.jef", "work", pc & 0xff, true
}

func TestCollectAllFamiliesAndMultiTool(t *testing.T) {
	ja := jasan.New(jasan.Config{})
	ja.Report.Violations = append(ja.Report.Violations, jasan.Violation{
		PC: 0x100, Addr: 0x2000, Width: 1, Shadow: 0xf9,
		Kind: "heap-buffer-overflow", Object: 0x1ff0,
	})
	jm := jmsan.New(jmsan.Config{})
	jm.Report.Violations = append(jm.Report.Violations, jmsan.Violation{
		PC: 0x200, Addr: 0x3000, Width: 8,
	})
	jt := jtsan.New(jtsan.Config{})
	jt.Report.Violations = append(jt.Report.Violations,
		jtsan.Violation{PC: 0x300, Addr: 0x4000, Width: 4, Kind: "use-after-free", Gen: 7},
		jtsan.Violation{PC: 0x304, Addr: 0x4000, Kind: "double-free"},
	)
	jc := jcfi.New(jcfi.DefaultConfig)
	jc.Report.Violations = append(jc.Report.Violations,
		jcfi.Violation{PC: 0x400, Target: 0x500, Kind: "forward-edge"},
		jcfi.Violation{PC: 0x404, Target: 0x504, Kind: "return-mismatch"},
	)
	multi := &core.MultiTool{}
	multi.Tools = append(multi.Tools, ja, jm, jt, jc)

	sc := telemetry.SpanContext{
		TraceID: "0af7651916cd43dd8448eb211c80319c",
		SpanID:  "b7ad6b7169203331",
		Sampled: true,
	}
	log := diag.NewLog()
	if n := diag.Collect(log, multi, fakeSym{}, sc); n != 6 {
		t.Fatalf("Collect = %d raw reports, want 6", n)
	}
	byRule := map[string]string{}
	for _, v := range log.Entries() {
		byRule[v.Rule] = v.CostCenter
		if v.TraceID != sc.TraceID || v.SpanID != sc.SpanID {
			t.Fatalf("violation missing trace binding: %+v", v)
		}
		if v.Func != "work" || v.Module != "mod.jef" {
			t.Fatalf("violation not symbolized: %+v", v)
		}
	}
	want := map[string]string{
		"MEM_ACCESS":    "mem-check",
		"MEM_DEF_LOAD":  "def-check",
		"MEM_GEN_CHECK": "gen-check",
		"QUAR_TICK":     "quarantine",
		"CFI_CALL":      "cfi-check",
		"CFI_RET":       "shadow-stack",
	}
	for rule, cc := range want {
		if byRule[rule] != cc {
			t.Fatalf("rule %s -> cost center %q, want %q (all: %v)", rule, byRule[rule], cc, byRule)
		}
	}
}

func TestRenderASanStyle(t *testing.T) {
	log := diag.NewLog()
	log.Add(diag.Violation{
		Tool: "jasan", Kind: "heap-buffer-overflow", PC: 0x400124,
		Module: "bug", Func: "main", FuncOff: 0xb6,
		Addr: 0x20000022, Width: 1, Shadow: 0xf9, Object: 0x20000010,
		Rule: "MEM_ACCESS", CostCenter: "mem-check",
	})
	out := diag.Render(log)
	for _, want := range []string{
		"==janitizer== ERROR: jasan: heap-buffer-overflow (CWE-122)",
		"in main+0xb6 [bug]",
		"access of size 1; shadow byte 0xf9",
		"rule MEM_ACCESS, cost center mem-check",
		"SUMMARY: 1 distinct violation(s), 1 report(s)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
	if got := diag.Render(diag.NewLog()); got != "==janitizer== no violations detected\n" {
		t.Fatalf("empty render = %q", got)
	}
}

func TestModuleSymbolizer(t *testing.T) {
	mod, err := cc.Compile(`
int helper(int n) { return n + 3; }
int main() { return helper(4); }
`, cc.Options{Module: "symtest", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	syms := mod.FuncSymbols()
	if len(syms) == 0 {
		t.Skip("module carries no function symbols at this SymLevel")
	}
	const base = 0x10000
	sym := diag.NewModuleSymbolizer(mod, base)
	for _, fs := range syms {
		m, fn, off, ok := sym.Symbolize(base + fs.Addr + 1)
		if !ok {
			t.Fatalf("no symbol for %s+1", fs.Name)
		}
		if m != mod.Name || fn != fs.Name || off != 1 {
			t.Fatalf("Symbolize(%s+1) = %s/%s+%d", fs.Name, m, fn, off)
		}
	}
	if _, _, _, ok := sym.Symbolize(base - 4); ok {
		t.Fatal("symbolized an address below the module")
	}
}

func TestLogBounded(t *testing.T) {
	log := diag.NewLog()
	mk := func(pc uint64) diag.Violation {
		return diag.Violation{Tool: "jasan", Kind: "heap-buffer-overflow", PC: pc}
	}
	for pc := uint64(0); pc < diag.MaxRecords+10; pc++ {
		log.Add(mk(pc))
	}
	log.Add(mk(0))                    // repeat of a kept record: counted on it
	log.Add(mk(diag.MaxRecords + 20)) // another new record: dropped
	if log.Len() != diag.MaxRecords {
		t.Fatalf("Len = %d, want %d", log.Len(), diag.MaxRecords)
	}
	if got := log.Dropped(); got != 11 {
		t.Fatalf("Dropped = %d, want 11", got)
	}
	if got := log.Total(); got != diag.MaxRecords+1 {
		t.Fatalf("Total = %d, want %d", got, diag.MaxRecords+1)
	}
	for _, v := range log.Entries() {
		want := uint64(1)
		if v.PC == 0 {
			want = 2
		}
		if v.Count != want {
			t.Fatalf("pc %#x count = %d, want %d", v.PC, v.Count, want)
		}
	}
}
