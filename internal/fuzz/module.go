package fuzz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/fuzz/gen"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/obj"
	"repro/internal/registry"
	"repro/internal/vm"
)

// Domain B: robustness fuzzing of the module pipeline. A mutated byte
// string is pushed through every stage a hostile .jef file would reach —
// deserialise, validate, disassemble, analyse, load, execute — each guarded
// against panics and bounded by a step budget (oracle 2).

// ModResult is the verdict on one module-domain case.
type ModResult struct {
	// Stage is the deepest stage that completed without error.
	Stage string
	// ErrClass is the digit-stripped error of the first failing stage
	// ("" when the whole pipeline succeeded).
	ErrClass string
	// Crash is the captured panic, if any stage panicked.
	Crash *Crash
	// Violations lists oracle failures other than panics (e.g. an
	// unmarshal rejection without the typed sentinel error).
	Violations []string
	// Cov is the case's coverage feature set.
	Cov *metrics.Bitmap
}

// hashStr is FNV-1a, for folding error classes into coverage features.
func hashStr(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

func bucket(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64(bits.Len(uint(n)))
}

// CheckModule pushes one byte string through the module pipeline. reg
// supplies the modules a loadable input may depend on (libj); budget bounds
// the execution stage.
func CheckModule(data []byte, reg loader.Registry, budget uint64) *ModResult {
	res := &ModResult{Cov: &metrics.Bitmap{}}
	stages := 0
	fail := func(stage string, err error) *ModResult {
		res.Cov.Add(feature(featErrClass, hashStr(stage+"|"+stripDigits(err.Error()))))
		res.ErrClass = stage + ": " + stripDigits(err.Error())
		return res
	}
	pass := func(stage string) {
		res.Stage = stage
		stages++
		res.Cov.Add(feature(featStage, uint64(stages)))
	}

	// Stage 1: deserialise.
	var mod *obj.Module
	err, crash := guard("unmarshal", func() error {
		var e error
		mod, e = obj.Unmarshal(data)
		return e
	})
	if crash != nil {
		res.Crash = crash
		return res
	}
	if err != nil {
		if !errors.Is(err, obj.ErrBadMagic) && !errors.Is(err, obj.ErrMalformedModule) {
			res.Violations = append(res.Violations,
				"unmarshal rejected input without a typed error: "+stripDigits(err.Error()))
		}
		return fail("unmarshal", err)
	}
	pass("unmarshal")
	res.Cov.Add(feature(featShape, 1<<32|bucket(len(mod.Sections))))
	res.Cov.Add(feature(featShape, 2<<32|bucket(len(mod.Symbols))))
	res.Cov.Add(feature(featShape, 3<<32|bucket(len(mod.Relocs))))
	res.Cov.Add(feature(featShape, 4<<32|uint64(mod.Type)<<1|b2u(mod.PIC)))

	// Stage 2: structural validation.
	if err, crash = guard("validate", mod.Validate); crash != nil {
		res.Crash = crash
		return res
	} else if err != nil {
		return fail("validate", err)
	}
	pass("validate")

	// Stage 3: static disassembly and CFG recovery.
	var g *cfg.Graph
	if err, crash = guard("cfg", func() error {
		var e error
		g, e = cfg.Build(mod)
		return e
	}); crash != nil {
		res.Crash = crash
		return res
	} else if err != nil {
		return fail("cfg", err)
	}
	pass("cfg")
	res.Cov.Add(feature(featShape, 5<<32|bucket(len(g.Blocks))))

	// Stage 4: the full static-analysis pipeline of one tool.
	if err, crash = guard("analyze", func() error {
		_, e := core.AnalyzeModule(mod, registry.MustNew("jasan-scev"))
		return e
	}); crash != nil {
		res.Crash = crash
		return res
	} else if err != nil {
		return fail("analyze", err)
	}
	pass("analyze")

	// Stages 5-6: load and execute (executables only) under the dynamic
	// modifier, with the step budget as the anti-hang bound.
	if mod.Type != obj.Exec {
		return res
	}
	if err, crash = guard("load+run", func() error {
		m := vm.New()
		m.InstallDefaultServices()
		m.MaxInstrs = budget
		fullReg := loader.Registry{mod.Name: mod}
		for k, v := range reg {
			fullReg[k] = v
		}
		pr := loader.NewProcess(m, fullReg)
		lm, e := pr.LoadProgram(mod)
		if e != nil {
			return e
		}
		d := dbm.New(m, pr, dbm.NullClient{})
		d.TraceHook = func(pc uint64) { res.Cov.Add(feature(featDBMBlock, pc)) }
		return d.Run(lm.RuntimeAddr(mod.Entry))
	}); crash != nil {
		res.Crash = crash
		return res
	} else if err != nil {
		return fail("run", err)
	}
	pass("run")
	return res
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// SeedModules builds the deterministic domain-B seed corpus: serialised
// modules of a few generated programs at several build configurations, plus
// the hand-written runtime library (the hairiest real module in the tree).
func SeedModules() ([][]byte, error) {
	var out [][]byte
	for seed := int64(1); seed <= 3; seed++ {
		p := gen.New(rand.New(rand.NewSource(seed)))
		src := p.Render()
		for _, opts := range []cc.Options{
			{Module: "p", O2: true},
			{Module: "p", O2: true, PIC: true},
		} {
			mod, err := cc.Compile(src, opts)
			if err != nil {
				return nil, fmt.Errorf("fuzz: seed module %d: %w", seed, err)
			}
			out = append(out, mod.Marshal())
		}
	}
	lj, err := libjModule()
	if err != nil {
		return nil, err
	}
	out = append(out, lj.Marshal())
	return out, nil
}

func libjModule() (*obj.Module, error) {
	reg, err := Libj()
	if err != nil {
		return nil, err
	}
	for _, m := range reg {
		return m, nil
	}
	return nil, fmt.Errorf("fuzz: empty libj registry")
}

// interesting32 are boundary values for length/count/address fields.
var interesting32 = []uint32{0, 1, 7, 0x7f, 0xff, 0x7fff, 0xffff,
	0x100000, 0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff}

// MutateBytes derives one mutated module image from a (with b as an
// optional splice partner). The result is never empty.
func MutateBytes(r *rand.Rand, a, b []byte) []byte {
	out := append([]byte(nil), a...)
	for n := 1 + r.Intn(3); n > 0; n-- {
		out = mutateOnce(r, out, b)
	}
	if len(out) == 0 {
		out = []byte{0}
	}
	return out
}

func mutateOnce(r *rand.Rand, a, b []byte) []byte {
	if len(a) == 0 {
		return a
	}
	switch r.Intn(8) {
	case 0: // flip a bit
		i := r.Intn(len(a))
		a[i] ^= 1 << r.Intn(8)
	case 1: // set a byte
		a[r.Intn(len(a))] = byte(r.Intn(256))
	case 2: // overwrite 4 bytes with an interesting value
		if len(a) >= 4 {
			v := interesting32[r.Intn(len(interesting32))]
			binary.LittleEndian.PutUint32(a[r.Intn(len(a)-3):], v)
		}
	case 3: // truncate
		if len(a) > 1 {
			a = a[:1+r.Intn(len(a)-1)]
		}
	case 4: // duplicate a chunk
		if len(a) < 1<<16 {
			lo := r.Intn(len(a))
			n := 1 + r.Intn(min(64, len(a)-lo))
			chunk := append([]byte(nil), a[lo:lo+n]...)
			at := r.Intn(len(a) + 1)
			a = append(a[:at:at], append(chunk, a[at:]...)...)
		}
	case 5: // delete a chunk
		if len(a) > 2 {
			lo := r.Intn(len(a) - 1)
			n := 1 + r.Intn(min(64, len(a)-lo-1))
			a = append(a[:lo:lo], a[lo+n:]...)
		}
	case 6: // splice with partner
		if len(b) > 0 {
			cut := r.Intn(len(a))
			bcut := r.Intn(len(b))
			a = append(a[:cut:cut], b[bcut:]...)
		}
	default: // structure-aware field corruption
		if m := structMutate(r, a); m != nil {
			a = m
		} else {
			a[r.Intn(len(a))] = byte(r.Intn(256))
		}
	}
	return a
}

// structMutate parses a valid image, corrupts one structural field, and
// re-serialises — the mutations most likely to slip past the deserialiser
// into cfg, the loader and the analyses.
func structMutate(r *rand.Rand, data []byte) []byte {
	mod, err := obj.Unmarshal(data)
	if err != nil {
		return nil
	}
	big := []uint64{0, 1, 0xfff0, 0x7fffffff, 0xffffffff_fffffff0,
		1 << 62, ^uint64(0)}
	pickBig := func() uint64 { return big[r.Intn(len(big))] }
	switch r.Intn(9) {
	case 0:
		if len(mod.Sections) > 0 {
			mod.Sections[r.Intn(len(mod.Sections))].Addr = pickBig()
		}
	case 1:
		if len(mod.Sections) > 0 {
			s := &mod.Sections[r.Intn(len(mod.Sections))]
			s.Flags = uint8(r.Intn(256))
		}
	case 2:
		if len(mod.Sections) > 0 {
			s := &mod.Sections[r.Intn(len(mod.Sections))]
			if len(s.Data) > 0 {
				s.Data = s.Data[:r.Intn(len(s.Data))]
			}
		}
	case 3:
		if len(mod.Symbols) > 0 {
			s := &mod.Symbols[r.Intn(len(mod.Symbols))]
			s.Addr, s.Size = pickBig(), pickBig()
		}
	case 4:
		mod.Entry = pickBig()
	case 5:
		if len(mod.Imports) > 0 {
			im := &mod.Imports[r.Intn(len(mod.Imports))]
			im.PLT, im.GOT = pickBig(), pickBig()
		}
	case 6:
		if len(mod.Relocs) > 0 {
			rel := &mod.Relocs[r.Intn(len(mod.Relocs))]
			rel.Where = pickBig()
			rel.Kind = obj.RelocKind(r.Intn(5))
		}
	case 7:
		mod.PIC = !mod.PIC
		if mod.PIC {
			mod.Base = 0
		} else {
			mod.Base = pickBig()
		}
	default:
		mod.SymLevel = obj.SymTabLevel(r.Intn(8))
		mod.Type = obj.ModuleType(r.Intn(4))
	}
	return mod.Marshal()
}
