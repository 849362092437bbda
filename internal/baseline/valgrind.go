// Package baseline implements the four comparison systems of the paper's
// evaluation: a Valgrind/memcheck-style dynamic-only sanitizer, a
// Retrowrite-style static-only binary rewriter, the static BinCFI scheme
// and the dynamic-only Lockdown scheme. Each exhibits the coverage,
// soundness and cost characteristics the paper measures them by.
package baseline

import (
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/jasan"
	"repro/internal/jmsan"
	"repro/internal/jtsan"
	"repro/internal/rules"
	"repro/internal/vm"
)

// ValgrindCosts models Valgrind's much heavier translation engine (its IR
// round-trip costs far more than DynamoRIO's copy-and-annotate).
var ValgrindCosts = dbm.Costs{BlockBuild: 1500, PerInstr: 100, IndirectDispatch: 30}

// Valgrind trap family: the memory check itself happens inside the handler
// — the clean-call model, as opposed to JASan's inlined checks. Codes encode
// the register holding the address and the width.
const (
	valgrindTrapBase = 300
	valgrindWidthBit = 16
)

func valgrindTrapCode(reg isa.Register, width int) int64 {
	c := int64(valgrindTrapBase) + int64(reg)
	if width == 8 {
		c += valgrindWidthBit
	}
	return c
}

// ValgrindTool is the memcheck-style dynamic-only sanitizer: no static
// analysis, every block goes through the dynamic path, every access is
// checked via a clean call that saves the full register/flag context.
// Reports are deduplicated per heap object (memcheck suppresses duplicate
// errors), which is what makes it report fewer-than-actual violations on
// multi-overflow test cases (Fig. 10). It has no canary handling, so
// heap-to-stack overflows are missed entirely.
type ValgrindTool struct {
	Report *jasan.Report
	// DefReport accumulates uninitialized-read reports when validity-bit
	// tracking is on (NewValgrindDef); nil otherwise.
	DefReport *jmsan.Report
	// TemporalReport accumulates use-after-free/double-free reports when
	// temporal tracking is on (NewValgrindTemporal); nil otherwise.
	TemporalReport *jtsan.Report
	// trackDef enables memcheck's validity-bit (definedness) modelling.
	trackDef bool
	// trackTemporal enables generation-tag temporal modelling via JTSan's
	// shared quarantine runtime.
	trackTemporal bool
	// frameSizes maps frame-undef trap sites to frame byte counts (the
	// side table jmsan's shared runtime reads).
	frameSizes map[uint64]uint64
	// seenObjects implements per-object report suppression.
	seenObjects map[uint64]bool
	objects     jasan.HeapObjects
}

// NewValgrind returns a fresh memcheck-style tool checking addressability
// only.
func NewValgrind() *ValgrindTool {
	return &ValgrindTool{Report: &jasan.Report{}, seenObjects: map[uint64]bool{}}
}

// NewValgrindDef returns the memcheck model with validity-bit tracking
// enabled: every store additionally marks its target bytes defined, every
// load is additionally routed through the precise definedness check, fresh
// heap objects and new stack frames start undefined. The shadow encoding and
// trap handlers are shared with JMSan (internal/jmsan), so the two tools
// agree byte-for-byte on what "undefined" means — the reference oracle for
// the agreement tests. Reporting is eager: every load touching an undefined
// byte reports (no origin-tracking deferral).
func NewValgrindDef() *ValgrindTool {
	t := NewValgrind()
	t.trackDef = true
	t.DefReport = &jmsan.Report{}
	t.frameSizes = map[uint64]uint64{}
	return t
}

// NewValgrindTemporal returns the memcheck model with temporal tracking
// enabled: every access additionally routes through JTSan's precise
// freed-bitmap check — still in the clean-call model, one more trap in the
// same spill bracket — and the allocator is wrapped in JTSan's
// quarantine-and-generation runtime (internal/jtsan), so the two tools
// agree byte-for-byte on what "freed" means. Every check pays the full
// context spill that JTSan's inlined fast path avoids, which is what makes
// this the overhead baseline of BENCH_JTSAN.json.
func NewValgrindTemporal() *ValgrindTool {
	t := NewValgrind()
	t.trackTemporal = true
	t.TemporalReport = &jtsan.Report{}
	return t
}

// Name implements core.Tool.
func (t *ValgrindTool) Name() string {
	if t.trackDef {
		return "valgrind-def"
	}
	if t.trackTemporal {
		return "valgrind-temporal"
	}
	return "valgrind-sim"
}

// ViolationCount implements core.ViolationCounter: every enabled report
// family summed.
func (t *ValgrindTool) ViolationCount() int {
	n := int(t.Report.Total)
	if t.DefReport != nil {
		n += int(t.DefReport.Total)
	}
	if t.TemporalReport != nil {
		n += int(t.TemporalReport.Total)
	}
	return n
}

// StaticPass implements core.Tool: Valgrind has no static stage.
func (t *ValgrindTool) StaticPass(*core.StaticContext) []rules.Rule { return nil }

// Instrument implements core.Tool; it is unreachable since no rules exist,
// but falls through to the dynamic path for safety.
func (t *ValgrindTool) Instrument(bc *dbm.BlockContext, _ map[uint64][]rules.Rule) []dbm.CInstr {
	return t.DynFallback(bc)
}

// DynFallback instruments every memory access with a clean call into the
// checker.
func (t *ValgrindTool) DynFallback(bc *dbm.BlockContext) []dbm.CInstr {
	e := &dbm.Emitter{}
	ins := bc.AppInstrs
	for i := range ins {
		in := &ins[i]
		if in.IsMemAccess() {
			t.emitCleanCheck(e, in)
		}
		e.App(*in)
		if t.trackDef {
			if size := frameAllocAt(ins, i); size > 0 {
				t.frameSizes[in.Addr] = size
				jmsan.EmitFrameUndef(e, in.Addr)
			}
		}
	}
	return e.Out
}

// frameAllocAt recognises a prologue stack allocation at index i (`mov fp,
// sp` directly followed by `sub sp, N`) and returns the frame bytes to mark
// undefined, excluding an installed canary slot — the same block-local
// pattern JMSan's dynamic fallback uses, keeping the two tools' stack
// definedness identical.
func frameAllocAt(ins []isa.Instr, i int) uint64 {
	if i < 1 {
		return 0
	}
	in := &ins[i]
	prev := &ins[i-1]
	if in.Op != isa.OpSubRI || in.Rd != isa.SP || in.Imm <= 0 ||
		prev.Op != isa.OpMovRR || prev.Rd != isa.FP || prev.Rb != isa.SP {
		return 0
	}
	size := in.Imm
	for j := i + 1; j < len(ins); j++ {
		if ins[j].Op == isa.OpLdG {
			size -= 8
			break
		}
	}
	if size <= 0 {
		return 0
	}
	return uint64(size)
}

// emitCleanCheck saves the flags and its scratch register, computes the
// address, and traps into the checker. The trap's fixed machine cost models
// the remainder of the clean-call context switch (memcheck runs its check
// in generated helper code with full state spill).
func (t *ValgrindTool) emitCleanCheck(e *dbm.Emitter, in *isa.Instr) {
	mk := dbm.MkInstr
	scratch, _ := dbm.PickScratch(1, nil, dbm.ExcludeOperands(in))
	s1 := scratch[0]
	e.Meta(mk(isa.OpPushF, nil))
	e.Meta(mk(isa.OpPush, func(ins *isa.Instr) { ins.Rd = s1 }))
	addrOf := jasan.AddrOf(in)
	addrOf(e, s1)
	e.Meta(mk(isa.OpTrap, func(ins *isa.Instr) {
		ins.Imm = valgrindTrapCode(s1, in.AccessWidth())
		ins.Addr = in.Addr
	}))
	if t.trackDef {
		// Validity bits, still in the clean-call model: one more trap in the
		// same spill bracket. Stores define their bytes, loads go through
		// the precise per-byte check (the handler reports undefined reads).
		code := jmsan.DefLoadTrapCode(s1, in.AccessWidth())
		if in.IsStore() {
			code = jmsan.DefStoreTrapCode(s1, in.AccessWidth())
		}
		e.Meta(mk(isa.OpTrap, func(ins *isa.Instr) {
			ins.Imm = code
			ins.Addr = in.Addr
		}))
	}
	if t.trackTemporal {
		// Generation tags, still in the clean-call model: every access goes
		// through JTSan's precise freed-bitmap check (the handler reports
		// dangling accesses), with no inline fast path.
		code := jtsan.GenCheckTrapCode(s1, in.AccessWidth())
		e.Meta(mk(isa.OpTrap, func(ins *isa.Instr) {
			ins.Imm = code
			ins.Addr = in.Addr
		}))
	}
	e.Meta(mk(isa.OpPop, func(ins *isa.Instr) { ins.Rd = s1 }))
	e.Meta(mk(isa.OpPopF, nil))
}

// RuntimeInit implements core.Tool: interpose the redzone allocator (shared
// with the JASan runtime — memcheck likewise owns malloc) and register the
// checker traps.
func (t *ValgrindTool) RuntimeInit(rt *core.Runtime) error {
	t.objects = jasan.InstallRuntimeOn(rt.M, &jasan.Report{}) // discard inline reports
	if t.trackDef {
		// Shares JMSan's definedness runtime: the trap families and the
		// allocator wrapper marking fresh objects undefined (chained over
		// the redzone allocator installed just above).
		jmsan.InstallRuntimeOn(rt.M, t.DefReport, t.frameSizes)
	}
	if t.trackTemporal {
		// Shares JTSan's temporal runtime: the generation-check trap family
		// and the quarantine allocator wrapper (chained over the redzone
		// allocator installed just above).
		jtsan.InstallRuntimeOn(rt.M, t.TemporalReport)
	}
	rt.DBM.Costs = ValgrindCosts
	for reg := isa.Register(0); reg < isa.NumRegs; reg++ {
		for _, width := range []int{1, 8} {
			reg, width := reg, width
			rt.M.HandleTrap(valgrindTrapCode(reg, width), func(m *vm.Machine) error {
				t.check(m, m.Regs[reg], width)
				return nil
			})
		}
	}
	return nil
}

// check performs the memcheck-style validity test in the handler: the
// shadow byte (maintained by the shared allocator runtime) decides.
func (t *ValgrindTool) check(m *vm.Machine, addr uint64, width int) {
	sb, _ := m.Mem.ReadB(isa.ShadowAddr(addr))
	bad := false
	switch {
	case sb == 0:
	case sb >= 1 && sb <= 7:
		bad = addr%8 >= uint64(sb) || width == 8
	case sb == jasan.ShadowCanary:
		// Memcheck has no canary concept: the stack is fully
		// addressable to it, so this is NOT an error for Valgrind —
		// heap-to-stack overflows go unreported (Fig. 10 FNs).
		return
	default:
		bad = true
	}
	if !bad {
		return
	}
	obj, _ := t.objects.ObjectFor(addr)
	if obj != 0 {
		// Memcheck-style duplicate suppression: one report per object.
		if t.seenObjects[obj] {
			return
		}
		t.seenObjects[obj] = true
	}
	t.Report.Total++
	t.Report.Violations = append(t.Report.Violations, jasan.Violation{
		PC: m.TrapPC, Addr: addr, Width: width, Shadow: sb,
		Kind: "valgrind:" + kindOf(sb), Object: obj,
	})
}

func kindOf(sb byte) string {
	switch sb {
	case jasan.ShadowHeapRedzone:
		return "invalid-access-redzone"
	case jasan.ShadowFreed:
		return "use-after-free"
	}
	return "invalid-access"
}
