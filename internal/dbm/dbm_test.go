package dbm

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/vm"
)

// setup assembles src, loads it (with libj) and returns a DBM with the given
// client.
func setup(t testing.TB, src string, client Client) (*vm.Machine, *DBM, uint64) {
	t.Helper()
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = 5_000_000
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	p := loader.NewProcess(m, reg)
	main, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	lm, err := p.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	return m, New(m, p, client), lm.RuntimeAddr(main.Entry)
}

const sumProgram = `
.module prog
.entry _start
.section .text
_start:
    mov r1, 10000
    mov r2, 0
.loop:
    add r2, r1
    sub r1, 1
    cmp r1, 0
    jg .loop
    mov r1, r2
    mov r0, 1
    syscall
`

func TestNullClientPreservesSemantics(t *testing.T) {
	m, d, entry := setup(t, sumProgram, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 50005000 {
		t.Fatalf("sum under DBT = %d, want 50005000", m.ExitStatus)
	}
	if d.Stats.BlocksBuilt == 0 || d.Stats.BlockExecs < d.Stats.BlocksBuilt {
		t.Errorf("stats implausible: %+v", d.Stats)
	}
	// The loop body block executed 100 times but was built once.
	if d.Stats.BlocksBuilt > 5 {
		t.Errorf("built %d blocks, expected <= 5", d.Stats.BlocksBuilt)
	}
}

func TestNullClientOverheadIsSmallButNonzero(t *testing.T) {
	// Native run.
	mN := vm.New()
	mN.InstallDefaultServices()
	mN.MaxInstrs = 5_000_000
	lj, _ := libj.Module()
	pN := loader.NewProcess(mN, loader.Registry{libj.Name: lj})
	main, _ := asm.Assemble(sumProgram)
	lmN, err := pN.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	if err := mN.Run(lmN.RuntimeAddr(main.Entry)); err != nil {
		t.Fatal(err)
	}

	m, d, entry := setup(t, sumProgram, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	slow := float64(m.Cycles) / float64(mN.Cycles)
	if slow <= 1.0 {
		t.Fatalf("null client slowdown %.3f, want > 1", slow)
	}
	if slow > 1.25 {
		t.Fatalf("null client slowdown %.3f implausibly high for a loopy program", slow)
	}
}

func TestIndirectDispatchCharged(t *testing.T) {
	m, d, entry := setup(t, `
.module prog
.entry _start
.section .text
_start:
    mov r12, 0
    la r13, fn
.loop:
    calli r13          ; indirect call: dispatch cost each time
    add r12, 1
    cmp r12, 10
    jl .loop
    mov r1, 0
    mov r0, 1
    syscall
fn:
    ret
`, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	_ = m
	// 10 indirect calls + 10 returns (+ PLT/init noise is absent here).
	if d.Stats.IndirectDispatch < 20 {
		t.Errorf("indirect dispatches = %d, want >= 20", d.Stats.IndirectDispatch)
	}
}

// countingClient inserts a meta add-to-register counter before every store.
type countingClient struct {
	scratchAbuse bool
}

func (c countingClient) OnBlock(ctx *BlockContext) []CInstr {
	var out []CInstr
	for _, in := range ctx.AppInstrs {
		if in.IsStore() {
			// Inline meta-instrumentation: count stores in memory at a
			// fixed slot, preserving registers and flags via stack.
			slot := isa.LayoutCFITableBase // reuse a spare region
			out = append(out,
				Meta(isa.Instr{Op: isa.OpPushF, Size: 1}),
				Meta(isa.Instr{Op: isa.OpPush, Rd: isa.R6, Size: 2}),
				Meta(isa.Instr{Op: isa.OpPush, Rd: isa.R7, Size: 2}),
				Meta(isa.Instr{Op: isa.OpMovRI, Rd: isa.R6, Imm: int64(slot), Size: 10}),
				Meta(isa.Instr{Op: isa.OpLdQ, Rd: isa.R7, Rb: isa.R6, Size: 7}),
				Meta(isa.Instr{Op: isa.OpAddRI, Rd: isa.R7, Imm: 1, Size: 6}),
				Meta(isa.Instr{Op: isa.OpStQ, Rd: isa.R7, Rb: isa.R6, Size: 7}),
				Meta(isa.Instr{Op: isa.OpPop, Rd: isa.R7, Size: 2}),
				Meta(isa.Instr{Op: isa.OpPop, Rd: isa.R6, Size: 2}),
				Meta(isa.Instr{Op: isa.OpPopF, Size: 1}),
			)
		}
		out = append(out, App(in))
	}
	return out
}

func TestInlineInstrumentationCountsStores(t *testing.T) {
	m, d, entry := setup(t, `
.module prog
.entry _start
.section .text
_start:
    la r6, buf
    mov r7, 0
.loop:
    stxb [r6+r7], r7   ; one store per iteration
    add r7, 1
    cmp r7, 50
    jl .loop
    mov r1, 0
    mov r0, 1
    syscall
.section .data
buf:
    .zero 64
`, countingClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	count, err := m.Mem.Read64(isa.LayoutCFITableBase)
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("instrumented store count = %d, want 50", count)
	}
	if m.ExitStatus != 0 {
		t.Fatalf("program semantics broken by instrumentation: exit %d", m.ExitStatus)
	}
	if d.Stats.MetaInstrsInCache == 0 {
		t.Error("no meta instructions recorded")
	}
}

// skipClient inserts a meta conditional branch that skips a poison write —
// exercising intra-block JumpTo control flow.
type skipClient struct{}

func (skipClient) OnBlock(ctx *BlockContext) []CInstr {
	var out []CInstr
	for _, in := range ctx.AppInstrs {
		if in.IsStore() {
			// if r7 == 13 { skip the sentinel write } — meta control flow:
			//   pushf; cmp r7,13; je SKIP; (write sentinel); SKIP: popf
			base := len(out)
			_ = base
			out = append(out,
				Meta(isa.Instr{Op: isa.OpPushF, Size: 1}),
				Meta(isa.Instr{Op: isa.OpPush, Rd: isa.R8, Size: 2}),
				Meta(isa.Instr{Op: isa.OpCmpRI, Rd: isa.R7, Imm: 13, Size: 6}),
			)
			jeIdx := len(out)
			out = append(out, CInstr{}) // placeholder
			out = append(out,
				Meta(isa.Instr{Op: isa.OpMovRI, Rd: isa.R8, Imm: int64(isa.LayoutCFITableBase + 8), Size: 10}),
				Meta(isa.Instr{Op: isa.OpStQ, Rd: isa.R8, Rb: isa.R8, Size: 7}),
			)
			skipTo := len(out)
			out[jeIdx] = MetaJump(isa.Instr{Op: isa.OpJe, Size: 5}, skipTo)
			out = append(out,
				Meta(isa.Instr{Op: isa.OpPop, Rd: isa.R8, Size: 2}),
				Meta(isa.Instr{Op: isa.OpPopF, Size: 1}),
			)
		}
		out = append(out, App(in))
	}
	return out
}

func TestMetaBranchSkipsWithinBlock(t *testing.T) {
	m, d, entry := setup(t, `
.module prog
.entry _start
.section .text
_start:
    la r6, buf
    mov r7, 13
    stxb [r6+r7], r7   ; instrumentation should SKIP its sentinel write
    mov r7, 14
    stxb [r6+r7], r7   ; instrumentation should WRITE its sentinel
    mov r1, 0
    mov r0, 1
    syscall
.section .data
buf:
    .zero 64
`, skipClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	sentinel, _ := m.Mem.Read64(isa.LayoutCFITableBase + 8)
	if sentinel == 0 {
		t.Fatal("sentinel never written — meta branch always taken?")
	}
	if m.ExitStatus != 0 {
		t.Fatalf("exit = %d", m.ExitStatus)
	}
}

func TestBlockCacheReuse(t *testing.T) {
	_, d, entry := setup(t, sumProgram, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	loopBlocks := 0
	for _, b := range d.Blocks() {
		if b.Execs >= 9999 {
			loopBlocks++
		}
	}
	if loopBlocks == 0 {
		t.Error("loop block not reused from cache")
	}
	if d.Lookup(entry) == nil {
		t.Error("entry block not in cache")
	}
	d.Flush()
	if d.CacheSize() != 0 {
		t.Error("flush did not empty cache")
	}
}

func TestDBMWithLibjCalls(t *testing.T) {
	// Full program through PLT, lazy resolution, memcpy under DBT.
	m, d, entry := setup(t, `
.module prog
.entry _start
.needs libj.jef
.import memcpy
.section .text
_start:
    la r1, dst
    la r2, src
    mov r3, 6
    call memcpy
    la r6, dst
    ldb r7, [r6+5]
    mov r1, r7
    mov r0, 1
    syscall
.section .rodata
src:
    .ascii "hello!"
.section .data
dst:
    .zero 16
`, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != int64('!') {
		t.Fatalf("exit = %d, want '!'", m.ExitStatus)
	}
	// The PLT resolver's push+ret path ran under the DBT.
	if d.Stats.IndirectDispatch == 0 {
		t.Error("no indirect dispatches despite PLT ret-call")
	}
}

func TestJITCodeUnderDBM(t *testing.T) {
	// Dynamically generated code must be discovered and translated.
	ret := isa.Instr{Op: isa.OpRet}
	mov := isa.Instr{Op: isa.OpMovRI, Rd: isa.R0, Imm: 7}
	var blob []byte
	blob = isa.Encode(blob, &mov)
	blob = isa.Encode(blob, &ret)
	src := `
.module prog
.entry _start
.section .text
_start:
    mov r1, 4096
    mov r0, 4
    syscall            ; mmapx
    mov r12, r0
    la r7, blob
    mov r8, 0
.copy:
    ldxb r9, [r7+r8]
    stxb [r12+r8], r9
    add r8, 1
    cmp r8, ` + itoa(len(blob)) + `
    jl .copy
    calli r12
    mov r1, r0
    mov r0, 1
    syscall
.section .rodata
blob:
`
	for _, b := range blob {
		src += "    .byte " + itoa(int(b)) + "\n"
	}
	m, d, entry := setup(t, src, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 7 {
		t.Fatalf("JIT exit = %d, want 7", m.ExitStatus)
	}
	// The JIT block is cached outside any module.
	found := false
	for addr := range d.Blocks() {
		if addr >= isa.LayoutJITBase && addr < isa.LayoutStackLimit {
			found = true
		}
	}
	if !found {
		t.Error("JIT block not found in code cache")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
