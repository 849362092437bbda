package vm

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/telemetry"
)

// opCost is the weighted cycle cost of each opcode, built once from Costs.
var opCost = func() (t [256]uint64) {
	for op := range t {
		t[op] = Costs.ALU
	}
	for _, op := range []isa.Op{isa.OpLdQ, isa.OpStQ, isa.OpLdB, isa.OpStB,
		isa.OpLdXQ, isa.OpStXQ, isa.OpLdXB, isa.OpStXB, isa.OpPush, isa.OpPop,
		isa.OpPushF, isa.OpPopF, isa.OpLdPC} {
		t[op] = Costs.Mem
	}
	for _, op := range []isa.Op{isa.OpJmp, isa.OpJmpI, isa.OpJe, isa.OpJne,
		isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge, isa.OpJb, isa.OpJae} {
		t[op] = Costs.Branch
	}
	for _, op := range []isa.Op{isa.OpCall, isa.OpCallI, isa.OpRet} {
		t[op] = Costs.CallRet
	}
	t[isa.OpSyscall] = Costs.Syscall
	t[isa.OpTrap] = Costs.Trap
	t[isa.OpNop] = Costs.Nop
	return t
}()

// srcReg marks the ALU opcodes whose second operand is register Rb; the
// other ALU forms take the immediate.
var srcReg = func() (t [256]bool) {
	for _, op := range []isa.Op{isa.OpAddRR, isa.OpSubRR, isa.OpMulRR,
		isa.OpAndRR, isa.OpOrRR, isa.OpXorRR, isa.OpShlRR, isa.OpShrRR,
		isa.OpCmpRR, isa.OpTestRR} {
		t[op] = true
	}
	return t
}()

// Exec executes one decoded instruction; see ExecRun.
func (m *Machine) Exec(in *isa.Instr) (taken bool, err error) {
	_, taken, err = m.ExecRun([]isa.Instr{*in})
	return taken, err
}

// ExecRun executes the consecutive instructions of ins, updating PC,
// registers, flags, memory and cycle counters, until one transfers control,
// traps, makes a syscall, halts, faults or the slice ends. It returns the
// index of the last instruction it executed and, for that instruction,
// taken=true when control actually transferred.
//
// Accounting is per instruction: each one bumps Instrs, adds its cycles and
// checks MaxInstrs before it runs, so a fault or a trap handler observes the
// same counters as a one-instruction-at-a-time interpreter would.
//
// An instruction's Addr/Size fields must reflect its application address —
// the dynamic modifier relies on this so that return addresses, PC-relative
// accesses and fall-through targets keep application semantics even when
// the instruction executes from a code cache.
func (m *Machine) ExecRun(ins []isa.Instr) (n int, taken bool, err error) {
	r := &m.Regs
	mem := m.Mem
	budget := m.MaxInstrs
	if budget == 0 {
		budget = math.MaxUint64
	}
	for n = range ins {
		in := &ins[n]
		m.Instrs++
		m.Cycles += opCost[in.Op]
		if m.Instrs > budget {
			return n, false, &Fault{PC: in.Addr, Kind: "instruction budget exhausted"}
		}
		next := in.Addr + uint64(in.Size)
		disp := uint64(int64(in.Disp))

		switch in.Op {
		case isa.OpMovRI:
			r[in.Rd] = uint64(in.Imm)
		case isa.OpMovRR:
			r[in.Rd] = r[in.Rb]
		case isa.OpLdQ:
			if r[in.Rd], err = mem.Read64(r[in.Rb] + disp); err != nil {
				return n, false, m.at(err, in)
			}
		case isa.OpStQ:
			if err = mem.Write64(r[in.Rb]+disp, r[in.Rd]); err != nil {
				return n, false, m.at(err, in)
			}
		case isa.OpLdB:
			var b byte
			if b, err = mem.ReadB(r[in.Rb] + disp); err != nil {
				return n, false, m.at(err, in)
			}
			r[in.Rd] = uint64(b)
		case isa.OpStB:
			if err = mem.WriteB(r[in.Rb]+disp, byte(r[in.Rd])); err != nil {
				return n, false, m.at(err, in)
			}
		case isa.OpLdXQ:
			if r[in.Rd], err = mem.Read64(r[in.Rb] + r[in.Ri]*8 + disp); err != nil {
				return n, false, m.at(err, in)
			}
		case isa.OpStXQ:
			if err = mem.Write64(r[in.Rb]+r[in.Ri]*8+disp, r[in.Rd]); err != nil {
				return n, false, m.at(err, in)
			}
		case isa.OpLdXB:
			var b byte
			if b, err = mem.ReadB(r[in.Rb] + r[in.Ri] + disp); err != nil {
				return n, false, m.at(err, in)
			}
			r[in.Rd] = uint64(b)
		case isa.OpStXB:
			if err = mem.WriteB(r[in.Rb]+r[in.Ri]+disp, byte(r[in.Rd])); err != nil {
				return n, false, m.at(err, in)
			}
		case isa.OpLea:
			r[in.Rd] = r[in.Rb] + disp
		case isa.OpLeaX:
			r[in.Rd] = r[in.Rb] + r[in.Ri]*8 + disp
		case isa.OpLeaXB:
			r[in.Rd] = r[in.Rb] + r[in.Ri] + disp
		case isa.OpLdPC:
			if r[in.Rd], err = mem.Read64(next + disp); err != nil {
				return n, false, m.at(err, in)
			}
		case isa.OpLeaPC:
			r[in.Rd] = next + disp
		case isa.OpLdG:
			r[in.Rd] = m.Canary

		case isa.OpAddRR, isa.OpAddRI:
			a := r[in.Rd]
			b := m.srcVal(in)
			res := a + b
			r[in.Rd] = res
			m.setFlags(res, res < a, int64(^(a^b)&(a^res)) < 0)
		case isa.OpSubRR, isa.OpSubRI, isa.OpCmpRR, isa.OpCmpRI:
			a := r[in.Rd]
			b := m.srcVal(in)
			res := a - b
			if in.Op == isa.OpSubRR || in.Op == isa.OpSubRI {
				r[in.Rd] = res
			}
			m.setFlags(res, a < b, int64((a^b)&(a^res)) < 0)
		case isa.OpMulRR, isa.OpMulRI:
			res := r[in.Rd] * m.srcVal(in)
			r[in.Rd] = res
			m.setFlags(res, false, false)
		case isa.OpDivRR, isa.OpRemRR:
			d := r[in.Rb]
			if d == 0 {
				return n, false, &Fault{PC: in.Addr, Kind: "division by zero"}
			}
			var res uint64
			if in.Op == isa.OpDivRR {
				res = uint64(int64(r[in.Rd]) / int64(d))
			} else {
				res = uint64(int64(r[in.Rd]) % int64(d))
			}
			r[in.Rd] = res
			m.setFlags(res, false, false)
		case isa.OpAndRR, isa.OpAndRI, isa.OpTestRR:
			res := r[in.Rd] & m.srcVal(in)
			if in.Op != isa.OpTestRR {
				r[in.Rd] = res
			}
			m.setFlags(res, false, false)
		case isa.OpOrRR, isa.OpOrRI:
			res := r[in.Rd] | m.srcVal(in)
			r[in.Rd] = res
			m.setFlags(res, false, false)
		case isa.OpXorRR, isa.OpXorRI:
			res := r[in.Rd] ^ m.srcVal(in)
			r[in.Rd] = res
			m.setFlags(res, false, false)
		case isa.OpShlRR, isa.OpShlRI:
			res := r[in.Rd] << (m.srcVal(in) & 63)
			r[in.Rd] = res
			m.setFlags(res, false, false)
		case isa.OpShrRR, isa.OpShrRI:
			res := r[in.Rd] >> (m.srcVal(in) & 63)
			r[in.Rd] = res
			m.setFlags(res, false, false)
		case isa.OpNot:
			r[in.Rd] = ^r[in.Rd]
			m.setFlags(r[in.Rd], false, false)
		case isa.OpNeg:
			r[in.Rd] = -r[in.Rd]
			m.setFlags(r[in.Rd], false, false)

		case isa.OpPush:
			if err = m.Push(r[in.Rd]); err != nil {
				return n, false, m.at(err, in)
			}
		case isa.OpPop:
			if r[in.Rd], err = m.Pop(); err != nil {
				return n, false, m.at(err, in)
			}
		case isa.OpPushF:
			if err = m.Push(uint64(m.Flags)); err != nil {
				return n, false, m.at(err, in)
			}
		case isa.OpPopF:
			var v uint64
			if v, err = m.Pop(); err != nil {
				return n, false, m.at(err, in)
			}
			m.Flags = isa.Flag(v) & isa.AllFlags

		case isa.OpJmp:
			m.PC = in.Target()
			return n, true, nil
		case isa.OpJmpI:
			m.PC = r[in.Rd]
			return n, true, nil
		case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge,
			isa.OpJb, isa.OpJae:
			if m.condTaken(in.Op) {
				m.PC = in.Target()
				return n, true, nil
			}
		case isa.OpCall:
			if err = m.Push(next); err != nil {
				return n, false, m.at(err, in)
			}
			m.PC = in.Target()
			return n, true, nil
		case isa.OpCallI:
			if err = m.Push(next); err != nil {
				return n, false, m.at(err, in)
			}
			m.PC = r[in.Rd]
			return n, true, nil
		case isa.OpRet:
			var ra uint64
			if ra, err = m.Pop(); err != nil {
				return n, false, m.at(err, in)
			}
			m.PC = ra
			return n, true, nil

		case isa.OpSyscall:
			m.PC = next
			if err = m.syscall(); err != nil {
				return n, false, m.at(err, in)
			}
			return n, false, nil
		case isa.OpTrap:
			return n, false, m.trap(in, next)
		case isa.OpNop:
		case isa.OpHlt:
			m.Halted = true
			m.PC = next
			return n, true, nil
		default:
			return n, false, &Fault{PC: in.Addr, Kind: "invalid opcode " + in.Op.String()}
		}
		m.PC = next
	}
	return n, false, nil
}

// trap services OpTrap: it dispatches to the handler registered for the
// instruction's code, with PC already at the fall-through address.
func (m *Machine) trap(in *isa.Instr, next uint64) error {
	h := m.TrapHandlerFor(in.Imm)
	if h == nil {
		return &Fault{PC: in.Addr, Kind: fmt.Sprintf("unhandled trap %d", in.Imm)}
	}
	m.PC = next
	m.TrapPC = in.Addr
	if m.TrapOrigin != nil {
		if orig, ok := m.TrapOrigin[in.Addr]; ok {
			m.TrapPC = orig
		}
	}
	if err := h(m); err != nil {
		return m.at(err, in)
	}
	return nil
}

// srcVal returns the second ALU operand: register for RR forms, immediate
// for RI forms.
func (m *Machine) srcVal(in *isa.Instr) uint64 {
	if srcReg[in.Op] {
		return m.Regs[in.Rb]
	}
	return uint64(in.Imm)
}

// at decorates a fault with the faulting instruction's address.
func (m *Machine) at(err error, in *isa.Instr) error {
	if f, ok := err.(*Fault); ok && f.PC == 0 {
		f.PC = in.Addr
	}
	return err
}

// DecodeBlock decodes the straight-line run of instructions starting at
// addr: up to and including the first control transfer or system
// instruction (syscall, trap), which may halt the program or transfer
// control via a service. It is the one block decoder, shared by native
// execution and the dynamic modifier's block builder. Garbage after a
// decoded prefix is tolerated — execution only faults if it actually falls
// through to it — but an undecodable first instruction is a Fault whose
// Kind starts "undecodable instruction: ".
func DecodeBlock(mem *Memory, addr uint64) ([]isa.Instr, error) {
	var block []isa.Instr
	var buf [isa.MaxInstrLen]byte
	pc := addr
	for {
		if err := mem.ReadBytes(pc, buf[:]); err != nil {
			return nil, err
		}
		in, err := isa.Decode(buf[:], pc)
		if err != nil {
			if len(block) > 0 {
				return block, nil
			}
			return nil, &Fault{PC: pc, Kind: "undecodable instruction: " + err.Error()}
		}
		block = append(block, in)
		pc += uint64(in.Size)
		if in.IsCTI() || in.Op == isa.OpSyscall || in.Op == isa.OpTrap {
			return block, nil
		}
	}
}

// fetchBlock returns the decoded block at addr for native execution,
// caching the result.
func (m *Machine) fetchBlock(addr uint64) ([]isa.Instr, error) {
	if b, ok := m.blocks[addr]; ok {
		return b, nil
	}
	block, err := DecodeBlock(m.Mem, addr)
	if err != nil {
		return nil, err
	}
	m.blocks[addr] = block
	return block, nil
}

// InvalidateCode drops cached decodings (call after writing code bytes, e.g.
// when JIT-compiling).
func (m *Machine) InvalidateCode() { m.blocks = map[uint64][]isa.Instr{} }

// Run executes natively (no dynamic modification) from entry until the
// program exits or faults.
func (m *Machine) Run(entry uint64) error {
	sp := telemetry.StartSpan("vm.run", telemetry.Uint("entry", entry))
	defer func() {
		sp.SetAttr(telemetry.Uint("cycles", m.Cycles),
			telemetry.Uint("instrs", m.Instrs))
		sp.End()
	}()
	m.PC = entry
	for !m.Halted {
		if err := m.StepBlock(); err != nil {
			return err
		}
	}
	return nil
}

// StepBlock natively executes one straight-line block at the current PC —
// Run's loop body, exported so the hybrid rewriting backend can interleave
// native execution of statically rewritten code with DBM dispatch. A
// decoded block ends at its only instruction that can stop ExecRun, so one
// call runs it.
func (m *Machine) StepBlock() error {
	if m.BlockHook != nil {
		m.BlockHook(m.PC)
	}
	block, err := m.fetchBlock(m.PC)
	if err != nil {
		return err
	}
	_, _, err = m.ExecRun(block)
	return err
}
