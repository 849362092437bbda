package jlint_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/jlint"
	"repro/internal/juliet"
	"repro/internal/obj"
	"repro/internal/spec"
)

func analyzeAsm(t *testing.T, src string) *jlint.Report {
	t.Helper()
	mod, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	rep, err := jlint.Analyze(mod)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep
}

func mustOfKind(rep *jlint.Report, k jlint.Kind) []jlint.Finding {
	var out []jlint.Finding
	for _, f := range rep.Musts() {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	return out
}

func TestMustFrameOOB(t *testing.T) {
	// [fp-40] with fp = F-8 is F-48: entirely below the 24-byte frame
	// (push fp + sub sp,16). [fp+24] is F+16: past the return address.
	rep := analyzeAsm(t, `
.module t
.entry f
.section .text
f:
    push fp
    mov fp, sp
    sub sp, 16
    mov r1, 5
    stq [fp-40], r1
    ldq r2, [fp+24]
    mov sp, fp
    pop fp
    hlt
`)
	fs := mustOfKind(rep, jlint.OOBFrame)
	if len(fs) != 2 {
		t.Fatalf("must oob-frame findings = %d, want 2: %+v", len(fs), rep.Findings)
	}
	for _, f := range fs {
		if f.Func != "f" || len(f.Witness) == 0 {
			t.Errorf("bad finding shape: %+v", f)
		}
	}
}

func TestMustGlobalOOB(t *testing.T) {
	// The load's address is the data label plus 4096: provably past the
	// end of every section in a non-PIC image.
	rep := analyzeAsm(t, `
.module t
.entry f
.section .text
f:
    la r1, glob
    ldq r2, [r1+4096]
    hlt
.section .data
glob:
    .quad 7
`)
	if n := len(mustOfKind(rep, jlint.OOBGlobal)); n != 1 {
		t.Fatalf("must oob-global findings = %d, want 1: %+v", n, rep.Findings)
	}
}

func TestMustBadIndirect(t *testing.T) {
	// The computed jump target is a data-section label: never executable.
	rep := analyzeAsm(t, `
.module t
.entry f
.section .text
f:
    la r7, d
    jmpi r7
    hlt
.section .data
d:
    .quad 1
`)
	if n := len(mustOfKind(rep, jlint.BadIndirect)); n != 1 {
		t.Fatalf("must bad-indirect findings = %d, want 1: %+v", n, rep.Findings)
	}
}

func TestExecRangeIndirectIsMayOnly(t *testing.T) {
	// The lbm idiom: a computed goto into executable bytes the static
	// recovery never disassembled. Inadmissible, but possibly real code —
	// must stay a may-alarm.
	rep := analyzeAsm(t, `
.module t
.entry f
.section .text
f:
    la r7, hidden
    jmpi r7
hidden:
    mov r0, 1
    hlt
`)
	if n := len(mustOfKind(rep, jlint.BadIndirect)); n != 0 {
		t.Fatalf("exec-range indirect produced %d must-alarms: %+v", n, rep.Findings)
	}
}

// TestCWE457Detection is the static half of the acceptance criteria: every
// definite-bug case (the stack and scalar shapes, where the uninit read is
// on the only feasible path) yields a must uninit-read alarm; no good
// variant yields any must-alarm.
func TestCWE457Detection(t *testing.T) {
	for _, c := range juliet.Suite457() {
		for _, v := range []struct {
			name string
			src  string
			bad  bool
		}{{"good", c.Good, false}, {"bad", c.Bad, true}} {
			mod, err := cc.Compile(v.src, cc.Options{Module: "case", O2: true})
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", c.ID, v.name, err)
			}
			rep, err := jlint.Analyze(mod)
			if err != nil {
				t.Fatalf("%s/%s: analyze: %v", c.ID, v.name, err)
			}
			musts := rep.Musts()
			if !v.bad && len(musts) != 0 {
				t.Errorf("%s/good: %d must-alarms (want 0): %+v", c.ID, len(musts), musts[0])
			}
			if v.bad && c.Definite {
				uninit := mustOfKind(rep, jlint.UninitRead)
				if len(uninit) == 0 {
					t.Errorf("%s/bad: definite case missed (findings: %+v)", c.ID, rep.Findings)
				}
			}
		}
	}
}

// TestSafeWorkloadsZeroMustAlarms runs the detector over every suite
// workload module (mains and their library closures): the must tier must
// stay silent on all of them.
func TestSafeWorkloadsZeroMustAlarms(t *testing.T) {
	for _, w := range spec.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			main, reg, err := w.Build(false)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			mods := []*obj.Module{main}
			for _, m := range reg {
				mods = append(mods, m)
			}
			for _, m := range mods {
				rep, err := jlint.Analyze(m)
				if err != nil {
					t.Fatalf("analyze %s: %v", m.Name, err)
				}
				for _, f := range rep.Musts() {
					t.Errorf("%s: must-alarm %s in %s at %#x: %s",
						m.Name, f.Kind, f.Func, f.Instr, f.Detail)
				}
			}
		})
	}
}

func TestReportDeterminism(t *testing.T) {
	for _, w := range spec.All()[:6] {
		main, _, err := w.Build(false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		r1, err := jlint.Analyze(main)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := jlint.Analyze(main)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r1.Marshal(), r2.Marshal()) {
			t.Errorf("%s: report bytes differ between runs", w.Name)
		}
	}
}

func TestVerifyReport(t *testing.T) {
	for _, c := range juliet.Suite457()[72:76] {
		mod, err := cc.Compile(c.Bad, cc.Options{Module: "case", O2: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := jlint.Analyze(mod)
		if err != nil {
			t.Fatal(err)
		}
		if v := jlint.VerifyReport(mod, rep); len(v) != 0 {
			t.Errorf("%s: clean report has %d violations: %v", c.ID, len(v), v[0])
		}
		if len(rep.Findings) == 0 {
			t.Fatalf("%s: expected findings", c.ID)
		}
		// A report with a finding removed must fail re-derivation.
		tampered := &jlint.Report{Version: rep.Version, Module: rep.Module,
			ModHash: rep.ModHash, Findings: rep.Findings[1:]}
		tampered.Finalize()
		if v := jlint.VerifyReport(mod, tampered); len(v) == 0 {
			t.Errorf("%s: tampered report verified clean", c.ID)
		}
		// A report bound to different module content must be rejected.
		other := &jlint.Report{Version: rep.Version, Module: rep.Module,
			ModHash: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"}
		other.Finalize()
		if v := jlint.VerifyReport(mod, other); len(v) == 0 {
			t.Errorf("%s: wrong-hash report verified clean", c.ID)
		}
	}
}
