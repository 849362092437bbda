// Package vm implements the JVA machine: a cycle-accounting interpreter with
// a flat paged address space, syscalls and extensible service traps. It is
// the reproduction's substitute for the paper's hardware testbed: every
// performance number in the evaluation is a ratio of weighted cycle counts
// measured on this machine, so instrumentation overhead emerges from real
// executed instructions rather than assumed constants.
package vm

import (
	"encoding/binary"
	"fmt"
)

// AddrLimit is the exclusive upper bound of the address space (2 GiB). The
// canonical layout in package isa places all segments below this.
const AddrLimit uint64 = 0x8000_0000

const (
	pageShift = 16 // 64 KiB pages
	pageSize  = 1 << pageShift
	numPages  = AddrLimit >> pageShift
)

// Fault is a machine fault (bad memory access, undecodable fetch, division
// by zero, stack overflow).
type Fault struct {
	PC   uint64
	Addr uint64
	Kind string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vm: fault %s at pc=%#x addr=%#x", f.Kind, f.PC, f.Addr)
}

// Memory is the flat paged address space. Pages are committed on first
// write and zero-filled; a read of a never-written page returns zeros from
// one shared page without committing anything. Accesses beyond AddrLimit
// fault. Like hardware, the memory itself enforces no object bounds — that
// is the sanitizers' job.
type Memory struct {
	pages []*[pageSize]byte
}

// zeroPage backs every read of a never-written page. Nothing writes it.
var zeroPage [pageSize]byte

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make([]*[pageSize]byte, numPages)}
}

func rangeFault(addr uint64) error {
	return &Fault{Addr: addr, Kind: "address out of range"}
}

// readPage returns the page holding addr for reading.
func (m *Memory) readPage(addr uint64) (*[pageSize]byte, error) {
	if addr >= AddrLimit {
		return nil, rangeFault(addr)
	}
	if p := m.pages[addr>>pageShift]; p != nil {
		return p, nil
	}
	return &zeroPage, nil
}

// writePage returns the page holding addr for writing, committing it on
// first touch.
func (m *Memory) writePage(addr uint64) (*[pageSize]byte, error) {
	if addr >= AddrLimit {
		return nil, rangeFault(addr)
	}
	idx := addr >> pageShift
	p := m.pages[idx]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[idx] = p
	}
	return p, nil
}

// readSplit reads the n-byte (n <= 8) little-endian word at addr whose
// bytes cross from one page into the next: two page lookups in all. A
// crossing past AddrLimit faults at the first address beyond it, as
// ReadBytes does.
func (m *Memory) readSplit(addr, n uint64) (uint64, error) {
	p, err := m.readPage(addr)
	if err != nil {
		return 0, err
	}
	off := addr & (pageSize - 1)
	k := pageSize - off // bytes in the first page
	q, err := m.readPage(addr + k)
	if err != nil {
		return 0, err
	}
	// The k bytes ending page p, then the first n-k bytes of page q.
	v := binary.LittleEndian.Uint64(p[pageSize-8:])>>(64-8*k) |
		binary.LittleEndian.Uint64(q[:8])<<(8*k)
	if n < 8 {
		v &= 1<<(8*n) - 1
	}
	return v, nil
}

// writeSplit is readSplit's store of the low n bytes of v. As with
// WriteBytes, the bytes in the first page are written before a crossing
// past AddrLimit faults.
func (m *Memory) writeSplit(addr, v, n uint64) error {
	p, err := m.writePage(addr)
	if err != nil {
		return err
	}
	off := addr & (pageSize - 1)
	k := pageSize - off
	for i := uint64(0); i < k; i++ {
		p[off+i] = byte(v >> (8 * i))
	}
	q, err := m.writePage(addr + k)
	if err != nil {
		return err
	}
	for i := k; i < n; i++ {
		q[i-k] = byte(v >> (8 * i))
	}
	return nil
}

// ReadB reads one byte.
func (m *Memory) ReadB(addr uint64) (byte, error) {
	p, err := m.readPage(addr)
	if err != nil {
		return 0, err
	}
	return p[addr&(pageSize-1)], nil
}

// WriteB writes one byte.
func (m *Memory) WriteB(addr uint64, v byte) error {
	p, err := m.writePage(addr)
	if err != nil {
		return err
	}
	p[addr&(pageSize-1)] = v
	return nil
}

// Read64 reads a little-endian 8-byte word.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	if off := addr & (pageSize - 1); off <= pageSize-8 {
		p, err := m.readPage(addr)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(p[off:]), nil
	}
	return m.readSplit(addr, 8)
}

// Write64 writes a little-endian 8-byte word.
func (m *Memory) Write64(addr uint64, v uint64) error {
	if off := addr & (pageSize - 1); off <= pageSize-8 {
		p, err := m.writePage(addr)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(p[off:], v)
		return nil
	}
	return m.writeSplit(addr, v, 8)
}

// Read32 reads a little-endian 4-byte word.
func (m *Memory) Read32(addr uint64) (uint32, error) {
	if off := addr & (pageSize - 1); off <= pageSize-4 {
		p, err := m.readPage(addr)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(p[off:]), nil
	}
	v, err := m.readSplit(addr, 4)
	return uint32(v), err
}

// ReadBytes fills buf from memory starting at addr.
func (m *Memory) ReadBytes(addr uint64, buf []byte) error {
	for len(buf) > 0 {
		p, err := m.readPage(addr)
		if err != nil {
			return err
		}
		n := copy(buf, p[addr&(pageSize-1):])
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteBytes copies buf into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, buf []byte) error {
	for len(buf) > 0 {
		p, err := m.writePage(addr)
		if err != nil {
			return err
		}
		n := copy(p[addr&(pageSize-1):], buf)
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (m *Memory) ReadCString(addr uint64, max int) (string, error) {
	var out []byte
	for i := 0; i < max; i++ {
		b, err := m.ReadB(addr + uint64(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out), nil
}
