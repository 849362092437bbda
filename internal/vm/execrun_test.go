package vm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// straightLine lays ops out consecutively from addr.
func straightLine(addr uint64, ins ...isa.Instr) []isa.Instr {
	for i := range ins {
		ins[i].Addr = addr
		ins[i].Size = isa.EncodedSize(ins[i].Op)
		addr += uint64(ins[i].Size)
	}
	return ins
}

// machineState is the architectural state and counters two executions of
// the same code must agree on.
type machineState struct {
	Regs           [isa.NumRegs]uint64
	Flags          isa.Flag
	PC             uint64
	Instrs, Cycles uint64
	Halted         bool
	Mem            [64]byte
}

func stateOf(m *Machine) machineState {
	s := machineState{Regs: m.Regs, Flags: m.Flags, PC: m.PC,
		Instrs: m.Instrs, Cycles: m.Cycles, Halted: m.Halted}
	m.Mem.ReadBytes(isa.LayoutHeapBase, s.Mem[:])
	return s
}

// randomRun generates a straight-line run over r1..r6 with loads and stores
// through r7 (a heap pointer), a division that may fault, and a final
// conditional branch.
func randomRun(rng *rand.Rand) []isa.Instr {
	ops := []isa.Op{isa.OpMovRI, isa.OpMovRR, isa.OpAddRR, isa.OpAddRI,
		isa.OpSubRR, isa.OpSubRI, isa.OpCmpRR, isa.OpCmpRI, isa.OpMulRR,
		isa.OpAndRI, isa.OpOrRR, isa.OpXorRR, isa.OpShlRI, isa.OpShrRR,
		isa.OpNot, isa.OpNeg, isa.OpTestRR, isa.OpLdQ, isa.OpStQ, isa.OpLdB,
		isa.OpStB, isa.OpLea, isa.OpPush, isa.OpPop, isa.OpPushF, isa.OpPopF,
		isa.OpDivRR, isa.OpRemRR, isa.OpNop, isa.OpLdG}
	reg := func() isa.Register { return isa.Register(1 + rng.Intn(6)) }
	var ins []isa.Instr
	for i := 0; i < 1+rng.Intn(40); i++ {
		in := isa.Instr{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rb: reg(),
			Imm: int64(rng.Intn(64)) - 16}
		switch in.Op {
		case isa.OpLdQ, isa.OpStQ, isa.OpLdB, isa.OpStB, isa.OpLea:
			in.Rb = isa.R7
			in.Disp = int32(rng.Intn(7) * 8)
		}
		ins = append(ins, in)
	}
	br := []isa.Op{isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJge, isa.OpJb}
	ins = append(ins, isa.Instr{Op: br[rng.Intn(len(br))], Disp: 64})
	return straightLine(0x400000, ins...)
}

// TestExecRunMatchesExec cross-checks the fused run loop against executing
// the same instructions one Exec at a time: identical registers, flags,
// memory, PC, counters, stop index and fault — including instruction-budget
// faults that land mid-run.
func TestExecRunMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		ins := randomRun(rng)
		seed := rng.Int63()
		budget := uint64(0)
		if iter%4 == 0 {
			budget = uint64(rng.Intn(len(ins) + 1))
		}
		fresh := func() *Machine {
			m := New()
			m.MaxInstrs = budget
			r := rand.New(rand.NewSource(seed))
			for i := range m.Regs {
				if isa.Register(i) != isa.SP {
					m.Regs[i] = uint64(r.Intn(8))
				}
			}
			m.Regs[isa.R7] = isa.LayoutHeapBase
			m.PC = ins[0].Addr
			return m
		}

		a := fresh()
		n, taken, err := a.ExecRun(ins)

		b := fresh()
		var wantN int
		var wantTaken bool
		var wantErr error
		for wantN = range ins {
			wantTaken, wantErr = b.Exec(&ins[wantN])
			if wantErr != nil || wantTaken {
				break
			}
		}
		if n != wantN || taken != wantTaken || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("iter %d: ExecRun = (%d, %v, %v), Exec loop = (%d, %v, %v)",
				iter, n, taken, err, wantN, wantTaken, wantErr)
		}
		if sa, sb := stateOf(a), stateOf(b); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("iter %d: state differs\nExecRun:   %+v\nExec loop: %+v", iter, sa, sb)
		}
	}
}

// TestExecRunStopsAtControlAndServices checks where a run ends and which
// index it reports.
func TestExecRunStopsAtControlAndServices(t *testing.T) {
	mov := isa.Instr{Op: isa.OpMovRI, Rd: isa.R1, Imm: 1}
	cases := []struct {
		name      string
		ins       []isa.Instr
		wantN     int
		wantTaken bool
	}{
		{"slice end", []isa.Instr{mov, mov, mov}, 2, false},
		{"taken jump", []isa.Instr{mov, {Op: isa.OpJmp}, mov}, 1, true},
		{"untaken branch continues", []isa.Instr{
			{Op: isa.OpCmpRI, Rd: isa.R1, Imm: 1}, {Op: isa.OpJe}, mov}, 2, false},
		{"trap", []isa.Instr{mov, {Op: isa.OpTrap, Imm: isa.TrapPutI}, mov}, 1, false},
		{"syscall", []isa.Instr{{Op: isa.OpMovRI, Rd: isa.R0, Imm: isa.SysClock},
			{Op: isa.OpSyscall}, mov}, 1, false},
		{"halt", []isa.Instr{mov, {Op: isa.OpHlt}, mov}, 1, true},
	}
	for _, c := range cases {
		m := New()
		m.InstallDefaultServices()
		n, taken, err := m.ExecRun(straightLine(0x400000, c.ins...))
		if err != nil || n != c.wantN || taken != c.wantTaken {
			t.Errorf("%s: ExecRun = (%d, %v, %v), want (%d, %v, nil)",
				c.name, n, taken, err, c.wantN, c.wantTaken)
		}
		if m.Instrs != uint64(c.wantN+1) {
			t.Errorf("%s: Instrs = %d, want %d", c.name, m.Instrs, c.wantN+1)
		}
	}
}

// TestTrapHandlerSeesExactCounters checks that a handler and a syscall run
// mid-slice observe the counters of every instruction up to and including
// their own.
func TestTrapHandlerSeesExactCounters(t *testing.T) {
	m := New()
	var sawInstrs, sawCycles uint64
	m.HandleTrap(isa.TrapToolBase, func(m *Machine) error {
		sawInstrs, sawCycles = m.Instrs, m.Cycles
		return nil
	})
	ins := straightLine(0x400000,
		isa.Instr{Op: isa.OpMovRI, Rd: isa.R7, Imm: int64(isa.LayoutHeapBase)},
		isa.Instr{Op: isa.OpStQ, Rd: isa.R1, Rb: isa.R7},
		isa.Instr{Op: isa.OpTrap, Imm: isa.TrapToolBase})
	if _, _, err := m.ExecRun(ins); err != nil {
		t.Fatal(err)
	}
	wantCycles := Costs.ALU + Costs.Mem + Costs.Trap
	if sawInstrs != 3 || sawCycles != wantCycles {
		t.Fatalf("handler saw Instrs=%d Cycles=%d, want 3 and %d", sawInstrs, sawCycles, wantCycles)
	}

	m = New()
	ins = straightLine(0x400000,
		isa.Instr{Op: isa.OpNop},
		isa.Instr{Op: isa.OpMovRI, Rd: isa.R0, Imm: isa.SysClock},
		isa.Instr{Op: isa.OpSyscall})
	if _, _, err := m.ExecRun(ins); err != nil {
		t.Fatal(err)
	}
	if m.Regs[isa.R0] != 3 {
		t.Fatalf("SysClock read %d retired instructions, want 3", m.Regs[isa.R0])
	}
}

// TestUnhandledTrapCodes executes OpTrap with immediates a module could
// carry — negative, just past the registered codes, past MaxTrapCode, and
// the int64 extremes. Each must fault "unhandled trap N", never panic.
func TestUnhandledTrapCodes(t *testing.T) {
	m := New()
	m.InstallDefaultServices()
	m.HandleTrap(isa.TrapToolBase, func(*Machine) error { return nil })
	top := int64(len(m.traps))
	for _, code := range []int64{-1, -2, math.MinInt32, math.MinInt64, 0,
		top, top + 1, MaxTrapCode - 1, MaxTrapCode, math.MaxInt32,
		math.MaxInt64 - 1, math.MaxInt64} {
		if m.TrapHandlerFor(code) != nil {
			t.Fatalf("TrapHandlerFor(%d) != nil", code)
		}
		m.HandleTrap(code, nil) // removing an absent code is a no-op
		ins := straightLine(0x400000, isa.Instr{Op: isa.OpTrap, Imm: code})
		_, _, err := m.ExecRun(ins)
		var f *Fault
		want := fmt.Sprintf("unhandled trap %d", code)
		if !errors.As(err, &f) || f.Kind != want || f.PC != ins[0].Addr {
			t.Fatalf("trap %d: err = %v, want fault %q at pc %#x", code, err, want, ins[0].Addr)
		}
	}
	m.HandleTrap(isa.TrapToolBase, nil)
	if m.TrapHandlerFor(isa.TrapToolBase) != nil {
		t.Fatal("HandleTrap(code, nil) did not remove the handler")
	}
}

// TestWordStraddle checks word accesses that cross a page boundary: values
// round-trip, and a crossing past AddrLimit faults with the same Addr and
// Kind as the byte-wise ReadBytes/WriteBytes — leaving the bytes below the
// limit written, as WriteBytes does.
func TestWordStraddle(t *testing.T) {
	mem := NewMemory()
	for _, a := range []uint64{pageSize - 1, pageSize - 4, 2*pageSize - 7} {
		if err := mem.Write64(a, 0x0102030405060708); err != nil {
			t.Fatal(err)
		}
		if v, err := mem.Read64(a); err != nil || v != 0x0102030405060708 {
			t.Fatalf("Read64(%#x) = %#x, %v", a, v, err)
		}
		if v, err := mem.Read32(a); err != nil || v != 0x05060708 {
			t.Fatalf("Read32(%#x) = %#x, %v", a, v, err)
		}
	}

	for _, a := range []uint64{AddrLimit - 1, AddrLimit - 3, AddrLimit - 7} {
		var buf [8]byte
		want := mem.ReadBytes(a, buf[:])
		_, err := mem.Read64(a)
		sameFault(t, fmt.Sprintf("Read64(%#x)", a), err, want)
		if AddrLimit-a < 4 {
			want = mem.ReadBytes(a, buf[:4])
			_, err = mem.Read32(a)
			sameFault(t, fmt.Sprintf("Read32(%#x)", a), err, want)
		}

		ref := NewMemory()
		want = ref.WriteBytes(a, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		err = mem.Write64(a, 0x0807060504030201)
		sameFault(t, fmt.Sprintf("Write64(%#x)", a), err, want)
		got, _ := mem.ReadB(a)
		exp, _ := ref.ReadB(a)
		if got != exp || got != 1 {
			t.Fatalf("Write64(%#x) wrote %d below the limit, WriteBytes %d", a, got, exp)
		}
	}
}

func sameFault(t *testing.T, what string, err, want error) {
	t.Helper()
	var f, w *Fault
	if !errors.As(err, &f) || !errors.As(want, &w) || f.Addr != w.Addr || f.Kind != w.Kind {
		t.Fatalf("%s: err = %v, want %v", what, err, want)
	}
}

// TestReadsCommitNoPages checks that reading never-written memory returns
// zeros from the shared zero page: a strided sweep over the whole address
// space commits nothing, and one write commits exactly one page.
func TestReadsCommitNoPages(t *testing.T) {
	mem := NewMemory()
	var buf [16]byte
	const stride = pageSize / 4
	for a := uint64(0); a < AddrLimit-stride; a += stride {
		b, err1 := mem.ReadB(a)
		w, err2 := mem.Read64(a + stride - 4) // straddles every 4th step
		h, err3 := mem.Read32(a + stride - 2)
		err4 := mem.ReadBytes(a+stride-8, buf[:])
		if err := errors.Join(err1, err2, err3, err4); err != nil || b|byte(w)|byte(h) != 0 {
			t.Fatalf("read at %#x: %v (b=%d w=%d h=%d)", a, err, b, w, h)
		}
	}
	if _, err := mem.ReadCString(0x1000, 64); err != nil {
		t.Fatal(err)
	}
	if n := committed(mem); n != 0 {
		t.Fatalf("reads committed %d pages", n)
	}
	if zeroPage != ([pageSize]byte{}) {
		t.Fatal("shared zero page was written")
	}
	if err := mem.WriteB(0x12345, 1); err != nil {
		t.Fatal(err)
	}
	if n := committed(mem); n != 1 {
		t.Fatalf("one write committed %d pages, want 1", n)
	}
}

func committed(mem *Memory) int {
	n := 0
	for _, p := range mem.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// BenchmarkExecRun measures the run loop on a straight-line ALU and
// load/store block and reports guest MIPS.
func BenchmarkExecRun(b *testing.B) {
	var ins []isa.Instr
	for i := 0; i < 16; i++ {
		d := int32(i%8) * 8
		ins = append(ins,
			isa.Instr{Op: isa.OpAddRI, Rd: isa.R1, Imm: 3},
			isa.Instr{Op: isa.OpXorRR, Rd: isa.R2, Rb: isa.R1},
			isa.Instr{Op: isa.OpStQ, Rd: isa.R2, Rb: isa.R7, Disp: d},
			isa.Instr{Op: isa.OpCmpRI, Rd: isa.R1, Imm: 100},
			isa.Instr{Op: isa.OpLdQ, Rd: isa.R3, Rb: isa.R7, Disp: d},
			isa.Instr{Op: isa.OpShlRI, Rd: isa.R3, Imm: 1},
			isa.Instr{Op: isa.OpLea, Rd: isa.R4, Rb: isa.R7, Disp: d},
			isa.Instr{Op: isa.OpSubRR, Rd: isa.R3, Rb: isa.R4})
	}
	ins = straightLine(0x400000, ins...)
	m := New()
	m.Regs[isa.R7] = isa.LayoutHeapBase
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.ExecRun(ins); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(ins))/b.Elapsed().Seconds()/1e6, "MIPS")
}
