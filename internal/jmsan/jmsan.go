package jmsan

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/diag"
	"repro/internal/isa"
	"repro/internal/rules"
	"repro/internal/telemetry"
	"repro/internal/vsa"
)

// Config selects JMSan variants for the evaluation:
//
//   - UseLiveness off conservatively saves/restores every register and flag
//     the instrumentation touches (the "base" configuration);
//   - Elide toggles proof-carrying check elision: loads the static analysis
//     proves definitely-initialized (a store to the same proven address
//     dominates the load within the block, with no intervening redefinition,
//     frame adjustment or call) emit MEM_ACCESS_SAFE instead of a
//     MEM_DEF_LOAD. Every elision records a replayable vsa.Claim for
//     independent verification by cmd/jvet.
//
// JMSan-dyn (the dynamic-only variant) is obtained by running the tool with
// no rewrite-rule files at all, so every block takes the fallback path.
type Config struct {
	UseLiveness bool
	Elide       bool
}

// Tool is the JMSan security technique, pluggable into the Janitizer core.
type Tool struct {
	cfg Config
	// Report accumulates detected uninitialized reads.
	Report *Report
	// frameSizes maps FRAME_UNDEF trap sites (application addresses of
	// prologue stack allocations) to the number of frame bytes to mark
	// undefined. Populated at instrumentation time, read by the trap
	// handler.
	frameSizes map[uint64]uint64
}

// New returns a JMSan instance.
func New(cfg Config) *Tool {
	return &Tool{cfg: cfg, Report: &Report{}, frameSizes: map[uint64]uint64{}}
}

// Name implements core.Tool.
func (t *Tool) Name() string { return "jmsan" }

// ConfigKey returns a stable identifier for the configuration fields that
// influence StaticPass output — part of the analysis-cache key
// (internal/anserve).
func (t *Tool) ConfigKey() string {
	return fmt.Sprintf("liveness=%t,elide=%t", t.cfg.UseLiveness, t.cfg.Elide)
}

// ViolationCount implements core.ViolationCounter.
func (t *Tool) ViolationCount() int { return int(t.Report.Total) }

// Findings implements diag.Finder: every definedness report fired a
// MEM_DEF_LOAD check.
func (t *Tool) Findings() []diag.Violation {
	out := make([]diag.Violation, len(t.Report.Violations))
	for i, v := range t.Report.Violations {
		out[i] = diag.Violation{
			Tool: "jmsan", Kind: "uninitialized-read", PC: v.PC,
			Addr: v.Addr, Width: v.Width,
			Rule: "MEM_DEF_LOAD", CostCenter: "def-check",
			Line: v.String(),
		}
	}
	return out
}

// RuntimeInit implements core.Tool: installs the definedness trap families
// and interposes the allocator so fresh heap objects start undefined.
//
// frameSizes is additionally pre-populated from the loaded modules' rule
// files: under the static rewriting backend FRAME_UNDEF traps execute from
// ahead-of-time copies without ever passing through this tool's
// instrumentation hooks, so the trap handler must be able to resolve every
// statically-known site up front (dynamic translation re-records the same
// values, so the paths agree).
func (t *Tool) RuntimeInit(rt *core.Runtime) error {
	for _, lm := range rt.Proc.Modules {
		f := rt.Files[lm.Module.Name]
		if f == nil {
			continue
		}
		for i := range f.Rules {
			r := &f.Rules[i]
			if r.ID == rules.FrameUndef {
				t.frameSizes[lm.RuntimeAddr(r.Instr)] = r.Data[1]
			}
		}
	}
	installRuntime(rt.M, t.Report, t.frameSizes)
	return nil
}

// StaticPass implements core.Tool. It emits:
//
//   - MEM_DEF_STORE for every store (writes define their target bytes —
//     stores are never elided, the shadow must stay exact);
//   - FRAME_UNDEF at every prologue stack allocation, poisoning the new
//     frame's locals (below the canary slot when one is installed);
//   - MEM_DEF_LOAD for every load whose value may reach a definedness sink
//     per the def-use taint lattice (analysis.ComputeDefinedness);
//   - MEM_ACCESS_SAFE with SafeNoSink provenance for sink-free loads, and
//     with SafeDefInit provenance (plus a recorded claim) for loads proven
//     definitely-initialized when elision is on.
func (t *Tool) StaticPass(sc *core.StaticContext) []rules.Rule {
	var out []rules.Rule
	g := sc.Graph
	def := analysis.ComputeDefinedness(g, sc.Live)
	if t.cfg.Elide {
		// The VSA result itself is not consulted (def-init claims are
		// syntactic), but running it fills the per-function frame metadata
		// the proof artifact and its verifier depend on.
		sc.EnsureVSA()
	}

	for _, blk := range g.Blocks {
		var plan map[uint64]uint64
		if t.cfg.Elide {
			plan = t.defInitPlan(sc, blk)
		}
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if fs := frameAllocAt(blk, i); fs > 0 {
				lp := sc.Live.LiveIn(in.Addr)
				out = append(out, rules.Rule{
					ID: rules.FrameUndef, BBAddr: blk.Start, Instr: in.Addr,
					Data: [4]uint64{packLive(lp, sc.Live, in.Addr), fs},
				})
			}
			if !in.IsMemAccess() {
				continue
			}
			if in.IsStore() {
				lp := sc.Live.LiveIn(in.Addr)
				out = append(out, rules.Rule{
					ID: rules.MemDefStore, BBAddr: blk.Start, Instr: in.Addr,
					Data: [4]uint64{packLive(lp, sc.Live, in.Addr)},
				})
				continue
			}
			if anchor, ok := plan[in.Addr]; ok {
				out = append(out, rules.Rule{
					ID: rules.MemAccessSafe, BBAddr: blk.Start, Instr: in.Addr,
					Data: [4]uint64{0, rules.SafeDefInit, anchor},
				})
				continue
			}
			if !def.FeedsSink(in.Addr) {
				out = append(out, rules.Rule{
					ID: rules.MemAccessSafe, BBAddr: blk.Start, Instr: in.Addr,
					Data: [4]uint64{0, rules.SafeNoSink},
				})
				continue
			}
			lp := sc.Live.LiveIn(in.Addr)
			out = append(out, rules.Rule{
				ID: rules.MemDefLoad, BBAddr: blk.Start, Instr: in.Addr,
				Data: [4]uint64{packLive(lp, sc.Live, in.Addr)},
			})
		}
	}
	return out
}

// frameAllocAt recognises a prologue stack allocation at instruction index i
// of blk (`mov fp, sp` directly followed by `sub sp, N`) and returns the
// number of frame bytes to mark undefined: N, minus the canary slot when the
// prologue installs one (the canary is defined by its own install store and
// must not count as an application local).
func frameAllocAt(blk *cfg.BasicBlock, i int) uint64 {
	if i < 1 {
		return 0
	}
	in := &blk.Instrs[i]
	prev := &blk.Instrs[i-1]
	if in.Op != isa.OpSubRI || in.Rd != isa.SP || in.Imm <= 0 ||
		prev.Op != isa.OpMovRR || prev.Rd != isa.FP || prev.Rb != isa.SP {
		return 0
	}
	size := in.Imm
	for j := i + 1; j < len(blk.Instrs); j++ {
		if blk.Instrs[j].Op == isa.OpLdG {
			size -= 8
			break
		}
	}
	if size <= 0 {
		return 0
	}
	return uint64(size)
}

// defInitPlan finds loads in blk whose bytes a dominating same-address store
// definitely initialized: same addressing form, equal or smaller width, no
// redefinition of the address registers in between, and no intervening frame
// adjustment, call or service trap (any of which could re-undefine the
// stored bytes). Each planned elision records a replayable claim.
func (t *Tool) defInitPlan(sc *core.StaticContext, blk *cfg.BasicBlock) map[uint64]uint64 {
	plan := map[uint64]uint64{}
	if blk.Fn == nil {
		return plan
	}
	type anchorKey struct {
		shape  int
		rb, ri isa.Register
		disp   int32
	}
	type anchorInfo struct {
		idx   int
		addr  uint64
		width int
	}
	anchors := map[anchorKey]anchorInfo{}
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		if defInitBarrier(in) {
			anchors = map[anchorKey]anchorInfo{}
			continue
		}
		if !in.IsMemAccess() {
			continue
		}
		shape, ok := accessShape(in)
		if !ok {
			continue
		}
		k := anchorKey{shape: shape, rb: in.Rb, disp: in.Disp}
		if shape != shapePlain {
			k.ri = in.Ri
		}
		if in.IsStore() {
			anchors[k] = anchorInfo{idx: i, addr: in.Addr, width: in.AccessWidth()}
			continue
		}
		if a, have := anchors[k]; have && in.AccessWidth() <= a.width &&
			t.defInitClean(sc, blk, a.idx, i, shape, in) {
			plan[in.Addr] = a.addr
			sc.Proofs.Record(blk.Fn.Entry, vsa.Claim{
				Kind: vsa.ClaimDefInit, Block: blk.Start, Instr: in.Addr,
				Width: in.AccessWidth(), Prev: a.addr,
			})
		}
	}
	return plan
}

// defInitBarrier reports whether in invalidates every pending store anchor:
// a frame adjustment re-undefines stack bytes, and a call or service trap
// may free+reallocate (and so re-undefine) heap bytes.
func defInitBarrier(in *isa.Instr) bool {
	if in.Op == isa.OpSubRI && in.Rd == isa.SP {
		return true
	}
	switch in.Op {
	case isa.OpCall, isa.OpCallI, isa.OpTrap, isa.OpSyscall:
		return true
	}
	return false
}

// defInitClean checks the remaining side conditions between anchor and load:
// the address registers are not redefined in between, and the same
// definitions reach both uses.
func (t *Tool) defInitClean(sc *core.StaticContext, blk *cfg.BasicBlock,
	anchorIdx, curIdx, shape int, in *isa.Instr) bool {
	for j := anchorIdx + 1; j < curIdx; j++ {
		for _, d := range blk.Instrs[j].RegDefs(nil) {
			if d == in.Rb || (shape != shapePlain && d == in.Ri) {
				return false
			}
		}
	}
	anchor := &blk.Instrs[anchorIdx]
	if !sameDefs(sc.DefUse.DefsOf(anchor.Addr, in.Rb),
		sc.DefUse.DefsOf(in.Addr, in.Rb)) {
		return false
	}
	if shape != shapePlain &&
		!sameDefs(sc.DefUse.DefsOf(anchor.Addr, in.Ri),
			sc.DefUse.DefsOf(in.Addr, in.Ri)) {
		return false
	}
	return true
}

// sameDefs compares two reaching-definition sets.
func sameDefs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[uint64]bool, len(a))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			return false
		}
	}
	return true
}

// Address-shape classes for def-init matching (mirrors the verifier's own
// classification in internal/vsa).
const (
	shapePlain = iota // [rb+disp]
	shapeX8           // [rb+ri*8+disp]
	shapeX1           // [rb+ri+disp]
)

func accessShape(in *isa.Instr) (int, bool) {
	switch in.Op {
	case isa.OpLdQ, isa.OpStQ, isa.OpLdB, isa.OpStB:
		return shapePlain, true
	case isa.OpLdXQ, isa.OpStXQ:
		return shapeX8, true
	case isa.OpLdXB, isa.OpStXB:
		return shapeX1, true
	}
	return 0, false
}

// packLive builds the rule liveness word from a live point, including up to
// three dead registers usable as scratch.
func packLive(lp analysis.LivePoint, live *analysis.Liveness, addr uint64) uint64 {
	var free []uint8
	for _, r := range live.FreeRegs(addr, 3) {
		free = append(free, uint8(r))
	}
	return rules.PackLiveness(uint16(lp.Regs), lp.Flags, free)
}

// Instrument implements core.Tool: rewrites a statically-seen block using
// its rules (the hit path).
func (t *Tool) Instrument(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) []dbm.CInstr {
	return core.EmitPlans(bc, t.PlanStatic(bc, instrRules))
}

// DynFallback implements core.Tool: the simpler per-block analysis for code
// only seen dynamically. Every store updates the shadow, every load is
// checked (no sink filtering — the lattice needs whole-CFG liveness), and
// prologue stack allocations are pattern-matched block-locally.
func (t *Tool) DynFallback(bc *dbm.BlockContext) []dbm.CInstr {
	return core.EmitPlans(bc, t.PlanDyn(bc))
}

// PlanStatic implements core.PlannedTool.
func (t *Tool) PlanStatic(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) core.InstrPlan {
	return &staticPlan{t: t, bc: bc, rules: instrRules}
}

type staticPlan struct {
	t     *Tool
	bc    *dbm.BlockContext
	rules map[uint64][]rules.Rule
}

func (p *staticPlan) Before(e *dbm.Emitter, idx int) {
	in := &p.bc.AppInstrs[idx]
	for _, r := range p.rules[in.Addr] {
		switch r.ID {
		case rules.MemDefStore:
			e.SetCC(telemetry.CCDefStore)
			p.t.emitStoreUpdate(e, in, r.Data[0], true)
		case rules.MemDefLoad:
			e.SetCC(telemetry.CCDefCheck)
			p.t.emitLoadCheck(e, in, r.Data[0], true)
		}
	}
	e.SetCC(telemetry.CCOther)
}

func (p *staticPlan) After(e *dbm.Emitter, idx int) {
	in := &p.bc.AppInstrs[idx]
	for _, r := range p.rules[in.Addr] {
		if r.ID == rules.FrameUndef {
			e.SetCC(telemetry.CCDefStore)
			p.t.frameSizes[in.Addr] = r.Data[1]
			EmitFrameUndef(e, in.Addr)
			e.SetCC(telemetry.CCOther)
		}
	}
}

// PlanDyn implements core.PlannedTool.
func (t *Tool) PlanDyn(bc *dbm.BlockContext) core.InstrPlan {
	ins := bc.AppInstrs
	frameAt := map[int]uint64{}
	for i := 1; i < len(ins); i++ {
		in := &ins[i]
		prev := &ins[i-1]
		if in.Op != isa.OpSubRI || in.Rd != isa.SP || in.Imm <= 0 ||
			prev.Op != isa.OpMovRR || prev.Rd != isa.FP || prev.Rb != isa.SP {
			continue
		}
		size := in.Imm
		for j := i + 1; j < len(ins); j++ {
			if ins[j].Op == isa.OpLdG {
				size -= 8
				break
			}
		}
		if size > 0 {
			frameAt[i] = uint64(size)
		}
	}
	return &dynPlan{t: t, bc: bc, frameAt: frameAt}
}

type dynPlan struct {
	t       *Tool
	bc      *dbm.BlockContext
	frameAt map[int]uint64
}

func (p *dynPlan) Before(e *dbm.Emitter, idx int) {
	in := &p.bc.AppInstrs[idx]
	if !in.IsMemAccess() {
		return
	}
	if in.IsStore() {
		e.SetCC(telemetry.CCDefStore)
		p.t.emitStoreUpdate(e, in, 0, false)
	} else {
		e.SetCC(telemetry.CCDefCheck)
		p.t.emitLoadCheck(e, in, 0, false)
	}
	e.SetCC(telemetry.CCOther)
}

func (p *dynPlan) After(e *dbm.Emitter, idx int) {
	if size, ok := p.frameAt[idx]; ok {
		e.SetCC(telemetry.CCDefStore)
		appAddr := p.bc.AppInstrs[idx].Addr
		p.t.frameSizes[appAddr] = size
		EmitFrameUndef(e, appAddr)
		e.SetCC(telemetry.CCOther)
	}
}

// emitLoadCheck emits the inline definedness check for one load using the
// packed liveness word (conservative save/restore when liveness use is
// disabled or the block came through the dynamic fallback).
func (t *Tool) emitLoadCheck(e *dbm.Emitter, in *isa.Instr, livePacked uint64, haveLive bool) {
	dead, saveFlags := t.unpackSaves(livePacked, haveLive)
	scratch, toSave := dbm.PickScratch(2, dead, dbm.ExcludeOperands(in))
	EmitDefCheck(e, &CheckPlan{
		AppAddr: in.Addr, Width: in.AccessWidth(),
		S1: scratch[0], S2: scratch[1],
		SaveRegs: toSave, SaveFlags: saveFlags,
		Addr: addrOf(in),
	})
}

// emitStoreUpdate emits the shadow define for one store. Flags are never
// touched, so only the scratch register may need saving.
func (t *Tool) emitStoreUpdate(e *dbm.Emitter, in *isa.Instr, livePacked uint64, haveLive bool) {
	dead, _ := t.unpackSaves(livePacked, haveLive)
	scratch, toSave := dbm.PickScratch(1, dead, dbm.ExcludeOperands(in))
	EmitDefStore(e, in.Addr, in.AccessWidth(), scratch[0], toSave, addrOf(in))
}

func (t *Tool) unpackSaves(livePacked uint64, haveLive bool) ([]isa.Register, bool) {
	if !haveLive || !t.cfg.UseLiveness {
		return nil, true
	}
	_, flagsLive, freeRaw := rules.UnpackLiveness(livePacked)
	var dead []isa.Register
	for _, f := range freeRaw {
		dead = append(dead, isa.Register(f))
	}
	return dead, flagsLive
}
