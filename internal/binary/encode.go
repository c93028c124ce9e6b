// Package binary encodes and decodes WebAssembly modules in the binary
// format (version 1). The encoder and decoder round-trip every construct of
// the MVP, including the "name" custom section, which the instrumenter
// preserves so analyses can report human-readable function names.
package binary

import (
	"fmt"

	"wasabi/internal/leb128"
	"wasabi/internal/wasm"
	"wasabi/internal/workpool"
)

// Magic and version header of every wasm binary.
var header = []byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00}

// Section ids.
const (
	secCustom   = 0
	secType     = 1
	secImport   = 2
	secFunction = 3
	secTable    = 4
	secMemory   = 5
	secGlobal   = 6
	secExport   = 7
	secStart    = 8
	secElem     = 9
	secCode     = 10
	secData     = 11
)

// Encode serializes a module to the WebAssembly binary format. Section
// bodies are assembled first and the output buffer is then allocated at its
// exact final size, so serializing even a large (instrumented) module
// performs no buffer regrowth.
func Encode(m *wasm.Module) ([]byte, error) { return encode(m, 0) }

// encode is Encode with the code section encoded on the given number of
// workers (0 means GOMAXPROCS).
func encode(m *wasm.Module, workers int) ([]byte, error) {
	type section struct {
		id   byte
		body []byte
	}
	sections := make([]section, 0, 12)
	add := func(id byte, body []byte) {
		sections = append(sections, section{id, body})
	}

	if len(m.Types) > 0 {
		add(secType, encodeTypes(m))
	}
	if len(m.Imports) > 0 {
		b, err := encodeImports(m)
		if err != nil {
			return nil, err
		}
		add(secImport, b)
	}
	if len(m.Funcs) > 0 {
		add(secFunction, encodeFuncDecls(m))
	}
	if len(m.Tables) > 0 {
		add(secTable, encodeTables(m))
	}
	if len(m.Memories) > 0 {
		add(secMemory, encodeMemories(m))
	}
	if len(m.Globals) > 0 {
		b, err := encodeGlobals(m)
		if err != nil {
			return nil, err
		}
		add(secGlobal, b)
	}
	if len(m.Exports) > 0 {
		add(secExport, encodeExports(m))
	}
	if m.Start != nil {
		add(secStart, leb128.AppendU32(nil, *m.Start))
	}
	if len(m.Elems) > 0 {
		b, err := encodeElems(m)
		if err != nil {
			return nil, err
		}
		add(secElem, b)
	}
	if len(m.Funcs) > 0 {
		b, err := encodeCode(m, workers)
		if err != nil {
			return nil, err
		}
		add(secCode, b)
	}
	if len(m.Datas) > 0 {
		b, err := encodeDatas(m)
		if err != nil {
			return nil, err
		}
		add(secData, b)
	}
	if len(m.FuncNames) > 0 {
		add(secCustom, encodeNameSection(m))
	}
	for _, c := range m.Customs {
		var b []byte
		b = appendName(b, c.Name)
		b = append(b, c.Data...)
		add(secCustom, b)
	}

	total := len(header)
	for _, s := range sections {
		total += 1 + leb128.SizeU32(uint32(len(s.body))) + len(s.body)
	}
	out := make([]byte, 0, total)
	out = append(out, header...)
	for _, s := range sections {
		out = appendSection(out, s.id, s.body)
	}
	return out, nil
}

func appendSection(out []byte, id byte, body []byte) []byte {
	out = append(out, id)
	out = leb128.AppendU32(out, uint32(len(body)))
	return append(out, body...)
}

func appendName(b []byte, s string) []byte {
	b = leb128.AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendValTypes(b []byte, ts []wasm.ValType) []byte {
	b = leb128.AppendU32(b, uint32(len(ts)))
	for _, t := range ts {
		b = append(b, byte(t))
	}
	return b
}

func appendLimits(b []byte, l wasm.Limits) []byte {
	if l.HasMax {
		b = append(b, 0x01)
		b = leb128.AppendU32(b, l.Min)
		b = leb128.AppendU32(b, l.Max)
	} else {
		b = append(b, 0x00)
		b = leb128.AppendU32(b, l.Min)
	}
	return b
}

func appendGlobalType(b []byte, gt wasm.GlobalType) []byte {
	b = append(b, byte(gt.Type))
	if gt.Mutable {
		b = append(b, 0x01)
	} else {
		b = append(b, 0x00)
	}
	return b
}

func encodeTypes(m *wasm.Module) []byte {
	b := leb128.AppendU32(nil, uint32(len(m.Types)))
	for _, ft := range m.Types {
		b = append(b, 0x60)
		b = appendValTypes(b, ft.Params)
		b = appendValTypes(b, ft.Results)
	}
	return b
}

func encodeImports(m *wasm.Module) ([]byte, error) {
	b := leb128.AppendU32(nil, uint32(len(m.Imports)))
	for _, imp := range m.Imports {
		b = appendName(b, imp.Module)
		b = appendName(b, imp.Name)
		b = append(b, byte(imp.Kind))
		switch imp.Kind {
		case wasm.ExternFunc:
			b = leb128.AppendU32(b, imp.TypeIdx)
		case wasm.ExternTable:
			b = append(b, 0x70) // funcref
			b = appendLimits(b, imp.Table)
		case wasm.ExternMemory:
			b = appendLimits(b, imp.Mem)
		case wasm.ExternGlobal:
			b = appendGlobalType(b, imp.Global)
		default:
			return nil, fmt.Errorf("binary: unknown import kind %d", imp.Kind)
		}
	}
	return b, nil
}

func encodeFuncDecls(m *wasm.Module) []byte {
	b := leb128.AppendU32(nil, uint32(len(m.Funcs)))
	for i := range m.Funcs {
		b = leb128.AppendU32(b, m.Funcs[i].TypeIdx)
	}
	return b
}

func encodeTables(m *wasm.Module) []byte {
	b := leb128.AppendU32(nil, uint32(len(m.Tables)))
	for _, t := range m.Tables {
		b = append(b, 0x70)
		b = appendLimits(b, t)
	}
	return b
}

func encodeMemories(m *wasm.Module) []byte {
	b := leb128.AppendU32(nil, uint32(len(m.Memories)))
	for _, mem := range m.Memories {
		b = appendLimits(b, mem)
	}
	return b
}

func encodeGlobals(m *wasm.Module) ([]byte, error) {
	b := leb128.AppendU32(nil, uint32(len(m.Globals)))
	for _, g := range m.Globals {
		b = appendGlobalType(b, g.Type)
		var err error
		b, err = appendExpr(b, g.Init)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

func encodeExports(m *wasm.Module) []byte {
	b := leb128.AppendU32(nil, uint32(len(m.Exports)))
	for _, e := range m.Exports {
		b = appendName(b, e.Name)
		b = append(b, byte(e.Kind))
		b = leb128.AppendU32(b, e.Idx)
	}
	return b
}

func encodeElems(m *wasm.Module) ([]byte, error) {
	b := leb128.AppendU32(nil, uint32(len(m.Elems)))
	for _, e := range m.Elems {
		b = leb128.AppendU32(b, e.TableIdx)
		var err error
		b, err = appendExpr(b, e.Offset)
		if err != nil {
			return nil, err
		}
		b = leb128.AppendU32(b, uint32(len(e.Funcs)))
		for _, f := range e.Funcs {
			b = leb128.AppendU32(b, f)
		}
	}
	return b, nil
}

func encodeDatas(m *wasm.Module) ([]byte, error) {
	b := leb128.AppendU32(nil, uint32(len(m.Datas)))
	for _, d := range m.Datas {
		b = leb128.AppendU32(b, d.MemIdx)
		var err error
		b, err = appendExpr(b, d.Offset)
		if err != nil {
			return nil, err
		}
		b = leb128.AppendU32(b, uint32(len(d.Data)))
		b = append(b, d.Data...)
	}
	return b, nil
}

// encodeCode serializes the code section on the per-function worker pool
// (workpool.Run; workers 0 means GOMAXPROCS, capped at the function count).
// A cheap measure pass computes the exact encoded size of every function body
// first; the offsets are then fixed serially, so the section buffer is
// allocated once at its final size and each body is encoded straight into its
// own region of it (no per-function staging buffer, no regrowth). The output
// does not depend on the width, and on failure the error of the
// lowest-indexed failing function is returned.
func encodeCode(m *wasm.Module, workers int) ([]byte, error) {
	n := len(m.Funcs)
	sizes := make([]int, n)
	errs := make([]error, n)
	workpool.Run(workers, n, nil, nil, func(_ struct{}, i int) {
		sizes[i], errs[i] = funcBodySize(&m.Funcs[i])
	})
	if err := firstFuncErr(errs); err != nil {
		return nil, err
	}
	total := leb128.SizeU32(uint32(n))
	for _, size := range sizes {
		total += leb128.SizeU32(uint32(size)) + size
	}
	b := make([]byte, total)
	offs := make([]int, n)
	off := len(leb128.AppendU32(b[:0], uint32(n)))
	for i, size := range sizes {
		off += len(leb128.AppendU32(b[off:off], uint32(size)))
		offs[i] = off
		off += size
	}
	workpool.Run(workers, n, nil, nil, func(_ struct{}, i int) {
		// The region is capped at the measured size: a body that encodes
		// longer than measured reallocates instead of overwriting its
		// neighbour, and the length check below reports it.
		f, off, size := &m.Funcs[i], offs[i], sizes[i]
		body := appendLocals(b[off:off:off+size], f.Locals)
		body, err := appendInstrs(body, f.Body, f.BrTargets)
		if err == nil && len(body) != size {
			err = fmt.Errorf("encoded %d bytes, measured %d", len(body), size)
		}
		errs[i] = err
	})
	if err := firstFuncErr(errs); err != nil {
		return nil, err
	}
	return b, nil
}

// firstFuncErr returns the error of the lowest-indexed function in errs, so
// a failing encode reports the same function at every width.
func firstFuncErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("binary: function %d: %w", i, err)
		}
	}
	return nil
}

// localRuns calls fn once per run of the run-length encoding of locals.
func localRuns(locals []wasm.ValType, fn func(count uint32, t wasm.ValType)) (numRuns int) {
	i := 0
	for i < len(locals) {
		j := i + 1
		for j < len(locals) && locals[j] == locals[i] {
			j++
		}
		fn(uint32(j-i), locals[i])
		numRuns++
		i = j
	}
	return numRuns
}

func localsSize(locals []wasm.ValType) int {
	n := 0
	runs := localRuns(locals, func(count uint32, _ wasm.ValType) {
		n += leb128.SizeU32(count) + 1
	})
	return leb128.SizeU32(uint32(runs)) + n
}

func appendLocals(b []byte, locals []wasm.ValType) []byte {
	runs := localRuns(locals, func(uint32, wasm.ValType) {})
	b = leb128.AppendU32(b, uint32(runs))
	localRuns(locals, func(count uint32, t wasm.ValType) {
		b = leb128.AppendU32(b, count)
		b = append(b, byte(t))
	})
	return b
}

// funcBodySize returns the exact encoded size of a function body (locals
// vector plus instructions), mirroring appendLocals + appendInstrs.
func funcBodySize(f *wasm.Func) (int, error) {
	n := localsSize(f.Locals)
	for i := range f.Body {
		sz, err := instrSize(&f.Body[i], f.BrTargets)
		if err != nil {
			return 0, err
		}
		n += sz
	}
	return n, nil
}

// instrSize returns the exact encoded size of one instruction, mirroring
// appendInstr.
func instrSize(in *wasm.Instr, brTargets []uint32) (int, error) {
	op := in.Op
	if !op.Known() {
		if op == wasm.OpMiscPrefix {
			return miscInstrSize(in)
		}
		return 0, fmt.Errorf("binary: unknown opcode 0x%02x", byte(op))
	}
	n := 1
	switch op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
		n++
	case wasm.OpBr, wasm.OpBrIf, wasm.OpCall,
		wasm.OpLocalGet, wasm.OpLocalSet, wasm.OpLocalTee,
		wasm.OpGlobalGet, wasm.OpGlobalSet:
		n += leb128.SizeU32(in.Idx)
	case wasm.OpBrTable:
		off, cnt := in.BrTableSpan()
		if off+cnt > len(brTargets) {
			return 0, fmt.Errorf("binary: br_table target span [%d:%d] exceeds pool (%d)", off, off+cnt, len(brTargets))
		}
		n += leb128.SizeU32(uint32(cnt))
		for _, t := range brTargets[off : off+cnt] {
			n += leb128.SizeU32(t)
		}
		n += leb128.SizeU32(in.Idx)
	case wasm.OpCallIndirect:
		n += leb128.SizeU32(in.Idx) + 1
	case wasm.OpMemorySize, wasm.OpMemoryGrow:
		n++
	case wasm.OpI32Const:
		n += leb128.SizeS32(in.ConstI32())
	case wasm.OpI64Const:
		n += leb128.SizeS64(in.ConstI64())
	case wasm.OpF32Const:
		n += 4
	case wasm.OpF64Const:
		n += 8
	default:
		if op.IsLoad() || op.IsStore() {
			n += leb128.SizeU32(in.MemAlign()) + leb128.SizeU32(in.MemOffset())
		}
	}
	return n, nil
}

// miscInstrSize returns the exact encoded size of an implemented
// 0xFC-prefixed instruction, mirroring appendMiscInstr. Unimplemented
// subopcodes are unencodable: modules carrying them never pass validation,
// so the instrumenter cannot be asked to re-encode one.
func miscInstrSize(in *wasm.Instr) (int, error) {
	n := 1 + leb128.SizeU32(in.Idx)
	switch {
	case in.Idx <= wasm.MiscI64TruncSatF64U: // trunc_sat: no immediates
	case in.Idx == wasm.MiscMemoryCopy:
		n += 2 // two reserved memory indices
	case in.Idx == wasm.MiscMemoryFill:
		n++ // one reserved memory index
	default:
		name, proposal, _ := wasm.UnsupportedInfo(*in)
		return 0, fmt.Errorf("binary: cannot encode %s (%s proposal not implemented)", name, proposal)
	}
	return n, nil
}

func appendMiscInstr(b []byte, in *wasm.Instr) ([]byte, error) {
	if _, _, unsupported := wasm.UnsupportedInfo(*in); unsupported {
		name, proposal, _ := wasm.UnsupportedInfo(*in)
		return nil, fmt.Errorf("binary: cannot encode %s (%s proposal not implemented)", name, proposal)
	}
	b = append(b, byte(wasm.OpMiscPrefix))
	b = leb128.AppendU32(b, in.Idx)
	switch in.Idx {
	case wasm.MiscMemoryCopy:
		b = append(b, 0x00, 0x00) // reserved memory indices
	case wasm.MiscMemoryFill:
		b = append(b, 0x00) // reserved memory index
	}
	return b, nil
}

// appendExpr encodes a constant expression, which must already be terminated
// by an end instruction. Constant expressions cannot contain br_table, so no
// target pool is needed.
func appendExpr(b []byte, expr []wasm.Instr) ([]byte, error) {
	if len(expr) == 0 || expr[len(expr)-1].Op != wasm.OpEnd {
		return nil, fmt.Errorf("binary: expression not terminated by end")
	}
	return appendInstrs(b, expr, nil)
}

func appendInstrs(b []byte, instrs []wasm.Instr, brTargets []uint32) ([]byte, error) {
	for i := range instrs {
		var err error
		b, err = appendInstr(b, &instrs[i], brTargets)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendInstr(b []byte, in *wasm.Instr, brTargets []uint32) ([]byte, error) {
	op := in.Op
	if !op.Known() {
		if op == wasm.OpMiscPrefix {
			return appendMiscInstr(b, in)
		}
		return nil, fmt.Errorf("binary: unknown opcode 0x%02x", byte(op))
	}
	b = append(b, byte(op))
	switch op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
		b = append(b, byte(in.Block))
	case wasm.OpBr, wasm.OpBrIf, wasm.OpCall,
		wasm.OpLocalGet, wasm.OpLocalSet, wasm.OpLocalTee,
		wasm.OpGlobalGet, wasm.OpGlobalSet:
		b = leb128.AppendU32(b, in.Idx)
	case wasm.OpBrTable:
		off, cnt := in.BrTableSpan()
		if off+cnt > len(brTargets) {
			return nil, fmt.Errorf("binary: br_table target span [%d:%d] exceeds pool (%d)", off, off+cnt, len(brTargets))
		}
		b = leb128.AppendU32(b, uint32(cnt))
		for _, t := range brTargets[off : off+cnt] {
			b = leb128.AppendU32(b, t)
		}
		b = leb128.AppendU32(b, in.Idx) // default target
	case wasm.OpCallIndirect:
		b = leb128.AppendU32(b, in.Idx) // type index
		b = append(b, 0x00)             // reserved table index
	case wasm.OpMemorySize, wasm.OpMemoryGrow:
		b = append(b, 0x00) // reserved memory index
	case wasm.OpI32Const:
		b = leb128.AppendS32(b, in.ConstI32())
	case wasm.OpI64Const:
		b = leb128.AppendS64(b, in.ConstI64())
	case wasm.OpF32Const:
		bits := uint32(in.Bits)
		b = append(b, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	case wasm.OpF64Const:
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(in.Bits>>s))
		}
	default:
		if op.IsLoad() || op.IsStore() {
			b = leb128.AppendU32(b, in.MemAlign())
			b = leb128.AppendU32(b, in.MemOffset())
		}
	}
	return b, nil
}

func encodeNameSection(m *wasm.Module) []byte {
	b := appendName(nil, "name")
	// Function names subsection (id 1), sorted by index.
	idxs := make([]uint32, 0, len(m.FuncNames))
	for i := range m.FuncNames {
		idxs = append(idxs, i)
	}
	// Insertion sort: name maps are small.
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && idxs[j-1] > idxs[j]; j-- {
			idxs[j-1], idxs[j] = idxs[j], idxs[j-1]
		}
	}
	var sub []byte
	sub = leb128.AppendU32(sub, uint32(len(idxs)))
	for _, i := range idxs {
		sub = leb128.AppendU32(sub, i)
		sub = appendName(sub, m.FuncNames[i])
	}
	b = append(b, 1)
	b = leb128.AppendU32(b, uint32(len(sub)))
	b = append(b, sub...)
	return b
}
