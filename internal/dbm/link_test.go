package dbm

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

// linkedLoop writes a counting loop split over two code regions and returns
// the addresses of its blocks. Region A holds the entry block S and the loop
// head L; region B — the "target module" — holds the loop body T, which
// adds step to r5 and loops to L while r5 < 30, and the exit block.
//
//	S: mov r5, 0; jmp T       L: jmp T
//	T: add r5, step; cmp r5, 30; jl L
//	   mov r1, r5; mov r0, SysExit; syscall
func linkedLoop(t *testing.T, m *vm.Machine, step int64) (s, l, tb, bEnd uint64) {
	t.Helper()
	const regionA, regionB = 0x400000, 0x500000
	s, tb = regionA, regionB
	l = s + uint64(isa.EncodedSize(isa.OpMovRI)+isa.EncodedSize(isa.OpJmp))
	jmp := func(at, to uint64) isa.Instr {
		return isa.Instr{Op: isa.OpJmp, Addr: at, Size: isa.EncodedSize(isa.OpJmp),
			Disp: int32(int64(to) - int64(at+uint64(isa.EncodedSize(isa.OpJmp))))}
	}
	a := []isa.Instr{{Op: isa.OpMovRI, Rd: isa.R5}, jmp(0, tb), jmp(0, tb)}
	b := []isa.Instr{
		{Op: isa.OpAddRI, Rd: isa.R5, Imm: step},
		{Op: isa.OpCmpRI, Rd: isa.R5, Imm: 30},
		{Op: isa.OpJl},
		{Op: isa.OpMovRR, Rd: isa.R1, Rb: isa.R5},
		{Op: isa.OpMovRI, Rd: isa.R0, Imm: isa.SysExit},
		{Op: isa.OpSyscall},
	}
	write := func(base uint64, ins []isa.Instr) uint64 {
		var buf []byte
		pc := base
		for i := range ins {
			in := ins[i]
			in.Addr, in.Size = pc, isa.EncodedSize(in.Op)
			switch in.Op {
			case isa.OpJmp:
				in = jmp(pc, tb)
			case isa.OpJl:
				in.Disp = int32(int64(l) - int64(pc+uint64(in.Size)))
			}
			buf = isa.Encode(buf, &in)
			pc += uint64(in.Size)
		}
		if err := m.Mem.WriteBytes(base, buf); err != nil {
			t.Fatal(err)
		}
		return pc
	}
	write(regionA, a)
	bEnd = write(regionB, b)
	return s, l, tb, bEnd
}

func checkExecInvariant(t *testing.T, d *DBM) {
	t.Helper()
	if s := d.Stats; s.BlockExecs != s.CacheHits+s.BlocksBuilt {
		t.Fatalf("BlockExecs (%d) != CacheHits (%d) + BlocksBuilt (%d)",
			s.BlockExecs, s.CacheHits, s.BlocksBuilt)
	}
}

// TestFlushInvalidatesLinks stops a loop just before a linked transition
// L -> T, flushes T's code region (or the whole cache), places different
// code at T's address and resumes: the new code must run, not the block
// the stale link points to.
func TestFlushInvalidatesLinks(t *testing.T) {
	for _, c := range []struct {
		name  string
		flush func(d *DBM, lo, hi uint64)
	}{
		{"FlushRange", func(d *DBM, lo, hi uint64) { d.FlushRange(lo, hi) }},
		{"Flush", func(d *DBM, _, _ uint64) { d.Flush() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := vm.New()
			m.MaxInstrs = 1_000_000
			s, l, tb, bEnd := linkedLoop(t, m, 1)
			d := New(m, nil, NullClient{})
			m.PC = s
			for seen := 0; ; {
				if m.PC == tb {
					if seen++; seen == 3 {
						break
					}
				}
				if err := d.Step(); err != nil {
					t.Fatal(err)
				}
			}
			// The third entry to T would follow L's link.
			if old := d.Lookup(tb); old == nil || d.prev != d.Lookup(l) ||
				d.prev.successor(tb, d.gen) != old {
				t.Fatal("loop did not reach T through a linked transition")
			}
			checkExecInvariant(t, d)

			c.flush(d, tb, bEnd)
			linkedLoop(t, m, 10)
			if err := d.Run(m.PC); err != nil {
				t.Fatal(err)
			}
			// r5 was 2 at the flush: 12, 22, 32 under the new code; the
			// stale block would have counted on to 30.
			if m.ExitStatus != 32 {
				t.Fatalf("exit = %d, want 32 from the new code at T", m.ExitStatus)
			}
			checkExecInvariant(t, d)
		})
	}
}

// BenchmarkDBMStep measures dispatch plus execution under the null client
// on the sumProgram loop and reports guest MIPS.
func BenchmarkDBMStep(b *testing.B) {
	var instrs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, d, entry := setup(b, sumProgram, NullClient{})
		b.StartTimer()
		if err := d.Run(entry); err != nil {
			b.Fatal(err)
		}
		instrs += m.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "MIPS")
}
