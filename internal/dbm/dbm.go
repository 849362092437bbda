// Package dbm implements the dynamic binary modifier underlying Janitizer —
// the reproduction's DynamoRIO. It discovers code one basic block at a time
// as control reaches it, lets a client (security tool) rewrite each block
// once at translation time, places the rewritten block in a code cache, and
// dispatches between cached blocks.
//
// Performance modelling: the machine's cycle counter is charged for every
// executed instruction (including inserted instrumentation — that is the
// honest part of the model) plus explicit DBT costs: a one-time translation
// cost per built block and a dispatch cost per executed indirect control
// transfer (the indirect-branch-lookup of a real DBT). Direct transitions
// are linked and free after the first execution, as in DynamoRIO. The
// "null client" — translation with no instrumentation — therefore shows the
// baseline DBT overhead the paper reports in Figs. 8 and 11.
package dbm

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// RelocKind tags a meta instruction whose immediate is position-dependent.
// The DBM itself never consults it — meta code it caches was emitted against
// run-time addresses and is correct as-is — but the static rewriting backend
// (internal/rewrite) replays the same emission into a relocated copy of the
// code and must know which immediates to rematerialise there.
type RelocKind uint8

const (
	// RelocNone marks position-independent meta code (the default).
	RelocNone RelocKind = iota
	// RelocRetAddr marks a meta MovRI whose immediate is the return
	// address of the anchor call instruction (the shadow-stack push).
	// A static copy must substitute the copy's own fall-through address.
	RelocRetAddr
)

// CInstr is one code-cache instruction: an application instruction copied
// into the cache, or a meta-instruction inserted by the client.
type CInstr struct {
	In isa.Instr
	// JumpTo, for meta branch instructions, is the index inside the
	// block's Code slice to continue at when the branch is taken.
	// -1 selects application semantics (the branch leaves the block).
	JumpTo int
	// Meta marks inserted instrumentation (for statistics; meta
	// instructions still execute on the machine and cost cycles).
	Meta bool
	// CC is the cost center the instruction's cycles are charged to when
	// a telemetry profile is attached. Only meaningful on meta
	// instructions (application instructions always charge CCApp); the
	// zero value is telemetry.CCOther, so untagged meta code stays
	// accounted for.
	CC telemetry.CostCenter
	// Reloc marks a position-dependent meta immediate (see RelocKind).
	Reloc RelocKind
}

// App wraps an application instruction for the code cache.
func App(in isa.Instr) CInstr { return CInstr{In: in, JumpTo: -1} }

// Meta wraps an inserted meta-instruction.
func Meta(in isa.Instr) CInstr { return CInstr{In: in, JumpTo: -1, Meta: true} }

// MetaJump wraps an inserted branch that, when taken, continues at index
// target within the same block.
func MetaJump(in isa.Instr, target int) CInstr {
	return CInstr{In: in, JumpTo: target, Meta: true}
}

// Block is one translated basic block in the code cache, in the executable
// form the machine's run loop consumes: the client's translation with its
// CInstr wrappers stripped into dense side arrays.
type Block struct {
	// Start is the application (run-time) address the block was built
	// from.
	Start uint64
	// AppLen is the number of application instructions.
	AppLen int
	// Execs counts executions of this block.
	Execs uint64

	// code is the translated instruction sequence.
	code []isa.Instr
	// jump[i] is the index a taken meta branch at code[i] continues at,
	// or -1 when a taken branch there leaves the block (CInstr.JumpTo).
	jump []int32
	// cc[i] is the cost center code[i]'s cycles are charged to under a
	// profile: CCApp for application instructions.
	cc []telemetry.CostCenter

	// succ links the block's last two successors, most recent first. The
	// links are valid only while linkGen equals the DBM's flush
	// generation.
	succ    [2]link
	linkGen uint64
}

// link is one direct dispatch edge out of a block: control leaving it for
// application address pc continues in blk.
type link struct {
	pc  uint64
	blk *Block
}

// newBlock converts a client's translation into the executable form. It
// returns the block and its number of meta instructions.
func newBlock(start uint64, appLen int, code []CInstr) (*Block, int) {
	b := &Block{
		Start: start, AppLen: appLen,
		code: make([]isa.Instr, len(code)),
		jump: make([]int32, len(code)),
		cc:   make([]telemetry.CostCenter, len(code)),
	}
	meta := 0
	for i := range code {
		c := &code[i]
		b.code[i] = c.In
		b.jump[i] = int32(c.JumpTo)
		b.cc[i] = telemetry.CCApp
		if c.Meta {
			b.cc[i] = c.CC
			meta++
		}
	}
	return b, meta
}

// successor returns the block linked for application address pc in flush
// generation gen, or nil. A nil receiver has no links.
func (b *Block) successor(pc, gen uint64) *Block {
	if b == nil || b.linkGen != gen {
		return nil
	}
	if b.succ[0].pc == pc {
		return b.succ[0].blk
	}
	if b.succ[1].pc == pc {
		return b.succ[1].blk
	}
	return nil
}

// linkTo records next as b's most recent successor in generation gen,
// dropping links left from an earlier generation.
func (b *Block) linkTo(next *Block, gen uint64) {
	if b == nil {
		return
	}
	if b.linkGen != gen {
		b.succ = [2]link{}
		b.linkGen = gen
	}
	b.succ[1] = b.succ[0]
	b.succ[0] = link{pc: next.Start, blk: next}
}

// BlockContext is what a client sees when a block is first built.
type BlockContext struct {
	DBM *DBM
	// Start is the run-time address of the block head.
	Start uint64
	// AppInstrs are the decoded application instructions, at run-time
	// addresses.
	AppInstrs []isa.Instr
	// Module is the loaded module containing the block, or nil for
	// dynamically generated (JIT) code.
	Module *loader.LoadedModule
}

// Client rewrites blocks at translation time — the DynamoRIO client
// interface. OnBlock returns the code to place in the cache; returning the
// application instructions unchanged (see NullClient) is the identity
// translation.
type Client interface {
	OnBlock(ctx *BlockContext) []CInstr
}

// NullClient performs identity translation: pure DBT overhead, no
// instrumentation (the "null client" baseline of Fig. 8).
type NullClient struct{}

// OnBlock copies the application instructions unchanged.
func (NullClient) OnBlock(ctx *BlockContext) []CInstr {
	out := make([]CInstr, len(ctx.AppInstrs))
	for i, in := range ctx.AppInstrs {
		out[i] = App(in)
	}
	return out
}

// Costs models the DBT's own overhead in machine cycles.
type Costs struct {
	// BlockBuild is charged once per block translation.
	BlockBuild uint64
	// PerInstr is charged per application instruction translated.
	PerInstr uint64
	// IndirectDispatch is charged per executed indirect control transfer
	// (the indirect-branch-lookup hash probe).
	IndirectDispatch uint64
}

// DefaultCosts approximates DynamoRIO 8.0 (a null-client overhead around
// 10–30% on call-heavy code).
var DefaultCosts = Costs{BlockBuild: 250, PerInstr: 25, IndirectDispatch: 25}

// Stats counts dynamic-modification events.
type Stats struct {
	BlocksBuilt       uint64
	BlockExecs        uint64
	IndirectDispatch  uint64
	AppInstrsInCache  uint64
	MetaInstrsInCache uint64
	// CacheHits counts dispatches served from the code cache; every
	// dispatch is either a hit or a build, so
	// BlockExecs == CacheHits + BlocksBuilt.
	CacheHits uint64
	// Flushes counts Flush/FlushRange calls; FlushedBlocks counts the
	// blocks they evicted.
	Flushes       uint64
	FlushedBlocks uint64
}

// DBM drives execution of a process under dynamic modification.
type DBM struct {
	M      *vm.Machine
	Proc   *loader.Process
	Client Client
	Costs  Costs
	Stats  Stats

	// Prof, when set, receives per-cost-center cycle/instruction
	// attribution for every executed code-cache instruction and every
	// explicit DBT charge. Nil (the default) disables attribution without
	// changing the run's measured cycles — the profiler only observes the
	// machine's counters, it never adds to them.
	Prof *telemetry.Profile

	// TraceHook, when set, observes every block dispatch (diagnostics).
	TraceHook func(pc uint64)

	cache map[uint64]*Block
	// gen is the flush generation: Flush and FlushRange bump it, which
	// invalidates every block link made before.
	gen uint64
	// prev is the block dispatched last; Step tries its links before
	// the cache map.
	prev *Block
}

// New creates a dynamic modifier over a loaded process. proc may be nil when
// running raw code without a loader (tests).
func New(m *vm.Machine, proc *loader.Process, client Client) *DBM {
	return &DBM{
		M: m, Proc: proc, Client: client,
		Costs: DefaultCosts,
		cache: map[uint64]*Block{},
	}
}

// Lookup returns the cached block at run-time address addr, or nil.
func (d *DBM) Lookup(addr uint64) *Block { return d.cache[addr] }

// CacheSize returns the number of blocks in the code cache.
func (d *DBM) CacheSize() int { return len(d.cache) }

// Blocks returns the cached blocks (iteration order unspecified).
func (d *DBM) Blocks() map[uint64]*Block { return d.cache }

// Flush empties the code cache (used when application code is overwritten).
func (d *DBM) Flush() {
	d.Stats.Flushes++
	d.Stats.FlushedBlocks += uint64(len(d.cache))
	d.cache = map[uint64]*Block{}
	d.gen++
}

// FlushRange evicts cached blocks whose start address lies in [lo, hi) —
// used when a module is unloaded.
func (d *DBM) FlushRange(lo, hi uint64) {
	d.Stats.Flushes++
	for addr := range d.cache {
		if addr >= lo && addr < hi {
			delete(d.cache, addr)
			d.Stats.FlushedBlocks++
		}
	}
	d.gen++
}

// RegisterMetrics exposes the code-cache counters on a telemetry registry
// under the given label pairs. Series read d.Stats at exposition time, so
// scrape only from the run's goroutine or after the run finishes.
func (d *DBM) RegisterMetrics(r *telemetry.Registry, labels ...string) {
	r.CounterFunc("janitizer_dbm_cache_hits_total",
		"Block dispatches served from the code cache.",
		func() uint64 { return d.Stats.CacheHits }, labels...)
	r.CounterFunc("janitizer_dbm_cache_misses_total",
		"Block dispatches that required a translation (cache misses).",
		func() uint64 { return d.Stats.BlocksBuilt }, labels...)
	r.CounterFunc("janitizer_dbm_cache_flushes_total",
		"Code-cache flush operations.",
		func() uint64 { return d.Stats.Flushes }, labels...)
	r.CounterFunc("janitizer_dbm_cache_flushed_blocks_total",
		"Blocks evicted by cache flushes.",
		func() uint64 { return d.Stats.FlushedBlocks }, labels...)
	r.CounterFunc("janitizer_dbm_block_execs_total",
		"Cached block executions.",
		func() uint64 { return d.Stats.BlockExecs }, labels...)
	r.CounterFunc("janitizer_dbm_indirect_dispatch_total",
		"Indirect-branch dispatches (hash-lookup cost charged).",
		func() uint64 { return d.Stats.IndirectDispatch }, labels...)
	r.GaugeFunc("janitizer_dbm_cache_blocks",
		"Blocks currently in the code cache.",
		func() float64 { return float64(len(d.cache)) }, labels...)
}

// Run executes the program from entry under dynamic modification until it
// halts or faults.
func (d *DBM) Run(entry uint64) error {
	sp := telemetry.StartSpan("dbm.run", telemetry.Uint("entry", entry))
	m := d.M
	m.PC = entry
	for !m.Halted {
		if err := d.Step(); err != nil {
			d.endRunSpan(sp)
			return err
		}
	}
	d.endRunSpan(sp)
	return nil
}

// Step dispatches exactly one block at the machine's current PC: a linked
// transition from the previous block, else a cache lookup (or translation
// on a miss), followed by execution. On return m.PC holds the next
// application address, or the machine has halted. Step is Run's loop body,
// exported so the hybrid rewriting backend can interleave DBM dispatch with
// native execution of statically rewritten code.
func (d *DBM) Step() error {
	pc := d.M.PC
	if d.TraceHook != nil {
		d.TraceHook(pc)
	}
	blk := d.prev.successor(pc, d.gen)
	if blk != nil {
		d.Stats.CacheHits++
	} else {
		if blk = d.cache[pc]; blk != nil {
			d.Stats.CacheHits++
		} else {
			var err error
			if blk, err = d.build(pc); err != nil {
				return err
			}
		}
		d.prev.linkTo(blk, d.gen)
	}
	d.prev = blk
	return d.exec(blk)
}

// endRunSpan finishes the dbm.run span with the run's final counters.
func (d *DBM) endRunSpan(sp *telemetry.Span) {
	sp.SetAttr(
		telemetry.Uint("blocks_built", d.Stats.BlocksBuilt),
		telemetry.Uint("block_execs", d.Stats.BlockExecs),
		telemetry.Uint("cache_hits", d.Stats.CacheHits),
		telemetry.Uint("cycles", d.M.Cycles),
		telemetry.Uint("instrs", d.M.Instrs),
	)
	sp.End()
}

// build decodes, rewrites and caches the block starting at addr (Fig. 4
// step 2: the dispatcher fetches the block and hands it to the modifier).
func (d *DBM) build(addr uint64) (*Block, error) {
	appInstrs, err := vm.DecodeBlock(d.M.Mem, addr)
	if err != nil {
		if f, ok := err.(*vm.Fault); ok && strings.HasPrefix(f.Kind, "undecodable") {
			f.Kind = "dbm: " + f.Kind
		}
		return nil, err
	}
	var mod *loader.LoadedModule
	if d.Proc != nil {
		mod = d.Proc.ModuleAt(addr)
	}
	code := d.Client.OnBlock(&BlockContext{
		DBM: d, Start: addr, AppInstrs: appInstrs, Module: mod,
	})
	if len(code) == 0 {
		return nil, fmt.Errorf("dbm: client returned empty block at %#x", addr)
	}
	blk, meta := newBlock(addr, len(appInstrs), code)
	d.cache[addr] = blk

	d.Stats.BlocksBuilt++
	d.Stats.AppInstrsInCache += uint64(len(appInstrs))
	d.Stats.MetaInstrsInCache += uint64(meta)
	buildCost := d.Costs.BlockBuild + d.Costs.PerInstr*uint64(len(appInstrs))
	d.M.AddCycles(buildCost)
	d.Prof.Charge(telemetry.CCDispatch, buildCost, 0)
	return blk, nil
}

// exec runs one cached block through the machine's run loop. Meta branches
// with a jump target continue inside the block; application control
// transfers leave it with m.PC holding the next application address.
// Indirect terminators charge the dispatch cost.
//
// With a profile attached, the same loop runs one instruction at a time and
// charges each instruction's cycle delta — including any cycles its trap
// handler adds — to its cost center, and the dispatch cost to CCDispatch,
// so the profile's total matches the machine's cycle counter exactly.
func (d *DBM) exec(b *Block) error {
	m := d.M
	b.Execs++
	d.Stats.BlockExecs++
	prof := d.Prof
	code := b.code
	for i := 0; i < len(code); {
		end := len(code)
		var before uint64
		if prof != nil {
			end = i + 1
			before = m.Cycles
		}
		n, taken, err := m.ExecRun(code[i:end])
		n += i
		if prof != nil {
			prof.Charge(b.cc[n], m.Cycles-before, 1)
		}
		if err != nil {
			return err
		}
		if m.Halted {
			return nil
		}
		if taken {
			if j := b.jump[n]; j >= 0 {
				i = int(j)
				continue
			}
			// Application control transfer.
			if code[n].IsIndirectCTI() {
				d.Stats.IndirectDispatch++
				m.AddCycles(d.Costs.IndirectDispatch)
				prof.Charge(telemetry.CCDispatch, d.Costs.IndirectDispatch, 0)
			}
			return nil
		}
		i = n + 1
	}
	// Fell through the end: m.PC already holds the fall-through address
	// set by the last executed instruction.
	return nil
}
