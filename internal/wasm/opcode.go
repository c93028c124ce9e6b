package wasm

import "fmt"

// Opcode is a single-byte WebAssembly MVP opcode.
type Opcode byte

// Control instructions.
const (
	OpUnreachable  Opcode = 0x00
	OpNop          Opcode = 0x01
	OpBlock        Opcode = 0x02
	OpLoop         Opcode = 0x03
	OpIf           Opcode = 0x04
	OpElse         Opcode = 0x05
	OpEnd          Opcode = 0x0B
	OpBr           Opcode = 0x0C
	OpBrIf         Opcode = 0x0D
	OpBrTable      Opcode = 0x0E
	OpReturn       Opcode = 0x0F
	OpCall         Opcode = 0x10
	OpCallIndirect Opcode = 0x11
)

// Parametric instructions.
const (
	OpDrop   Opcode = 0x1A
	OpSelect Opcode = 0x1B
)

// Variable instructions.
const (
	OpLocalGet  Opcode = 0x20
	OpLocalSet  Opcode = 0x21
	OpLocalTee  Opcode = 0x22
	OpGlobalGet Opcode = 0x23
	OpGlobalSet Opcode = 0x24
)

// Memory instructions.
const (
	OpI32Load    Opcode = 0x28
	OpI64Load    Opcode = 0x29
	OpF32Load    Opcode = 0x2A
	OpF64Load    Opcode = 0x2B
	OpI32Load8S  Opcode = 0x2C
	OpI32Load8U  Opcode = 0x2D
	OpI32Load16S Opcode = 0x2E
	OpI32Load16U Opcode = 0x2F
	OpI64Load8S  Opcode = 0x30
	OpI64Load8U  Opcode = 0x31
	OpI64Load16S Opcode = 0x32
	OpI64Load16U Opcode = 0x33
	OpI64Load32S Opcode = 0x34
	OpI64Load32U Opcode = 0x35
	OpI32Store   Opcode = 0x36
	OpI64Store   Opcode = 0x37
	OpF32Store   Opcode = 0x38
	OpF64Store   Opcode = 0x39
	OpI32Store8  Opcode = 0x3A
	OpI32Store16 Opcode = 0x3B
	OpI64Store8  Opcode = 0x3C
	OpI64Store16 Opcode = 0x3D
	OpI64Store32 Opcode = 0x3E
	OpMemorySize Opcode = 0x3F
	OpMemoryGrow Opcode = 0x40
)

// Constants.
const (
	OpI32Const Opcode = 0x41
	OpI64Const Opcode = 0x42
	OpF32Const Opcode = 0x43
	OpF64Const Opcode = 0x44
)

// Numeric comparison instructions.
const (
	OpI32Eqz Opcode = 0x45
	OpI32Eq  Opcode = 0x46
	OpI32Ne  Opcode = 0x47
	OpI32LtS Opcode = 0x48
	OpI32LtU Opcode = 0x49
	OpI32GtS Opcode = 0x4A
	OpI32GtU Opcode = 0x4B
	OpI32LeS Opcode = 0x4C
	OpI32LeU Opcode = 0x4D
	OpI32GeS Opcode = 0x4E
	OpI32GeU Opcode = 0x4F

	OpI64Eqz Opcode = 0x50
	OpI64Eq  Opcode = 0x51
	OpI64Ne  Opcode = 0x52
	OpI64LtS Opcode = 0x53
	OpI64LtU Opcode = 0x54
	OpI64GtS Opcode = 0x55
	OpI64GtU Opcode = 0x56
	OpI64LeS Opcode = 0x57
	OpI64LeU Opcode = 0x58
	OpI64GeS Opcode = 0x59
	OpI64GeU Opcode = 0x5A

	OpF32Eq Opcode = 0x5B
	OpF32Ne Opcode = 0x5C
	OpF32Lt Opcode = 0x5D
	OpF32Gt Opcode = 0x5E
	OpF32Le Opcode = 0x5F
	OpF32Ge Opcode = 0x60

	OpF64Eq Opcode = 0x61
	OpF64Ne Opcode = 0x62
	OpF64Lt Opcode = 0x63
	OpF64Gt Opcode = 0x64
	OpF64Le Opcode = 0x65
	OpF64Ge Opcode = 0x66
)

// Numeric arithmetic instructions.
const (
	OpI32Clz    Opcode = 0x67
	OpI32Ctz    Opcode = 0x68
	OpI32Popcnt Opcode = 0x69
	OpI32Add    Opcode = 0x6A
	OpI32Sub    Opcode = 0x6B
	OpI32Mul    Opcode = 0x6C
	OpI32DivS   Opcode = 0x6D
	OpI32DivU   Opcode = 0x6E
	OpI32RemS   Opcode = 0x6F
	OpI32RemU   Opcode = 0x70
	OpI32And    Opcode = 0x71
	OpI32Or     Opcode = 0x72
	OpI32Xor    Opcode = 0x73
	OpI32Shl    Opcode = 0x74
	OpI32ShrS   Opcode = 0x75
	OpI32ShrU   Opcode = 0x76
	OpI32Rotl   Opcode = 0x77
	OpI32Rotr   Opcode = 0x78

	OpI64Clz    Opcode = 0x79
	OpI64Ctz    Opcode = 0x7A
	OpI64Popcnt Opcode = 0x7B
	OpI64Add    Opcode = 0x7C
	OpI64Sub    Opcode = 0x7D
	OpI64Mul    Opcode = 0x7E
	OpI64DivS   Opcode = 0x7F
	OpI64DivU   Opcode = 0x80
	OpI64RemS   Opcode = 0x81
	OpI64RemU   Opcode = 0x82
	OpI64And    Opcode = 0x83
	OpI64Or     Opcode = 0x84
	OpI64Xor    Opcode = 0x85
	OpI64Shl    Opcode = 0x86
	OpI64ShrS   Opcode = 0x87
	OpI64ShrU   Opcode = 0x88
	OpI64Rotl   Opcode = 0x89
	OpI64Rotr   Opcode = 0x8A

	OpF32Abs      Opcode = 0x8B
	OpF32Neg      Opcode = 0x8C
	OpF32Ceil     Opcode = 0x8D
	OpF32Floor    Opcode = 0x8E
	OpF32Trunc    Opcode = 0x8F
	OpF32Nearest  Opcode = 0x90
	OpF32Sqrt     Opcode = 0x91
	OpF32Add      Opcode = 0x92
	OpF32Sub      Opcode = 0x93
	OpF32Mul      Opcode = 0x94
	OpF32Div      Opcode = 0x95
	OpF32Min      Opcode = 0x96
	OpF32Max      Opcode = 0x97
	OpF32Copysign Opcode = 0x98

	OpF64Abs      Opcode = 0x99
	OpF64Neg      Opcode = 0x9A
	OpF64Ceil     Opcode = 0x9B
	OpF64Floor    Opcode = 0x9C
	OpF64Trunc    Opcode = 0x9D
	OpF64Nearest  Opcode = 0x9E
	OpF64Sqrt     Opcode = 0x9F
	OpF64Add      Opcode = 0xA0
	OpF64Sub      Opcode = 0xA1
	OpF64Mul      Opcode = 0xA2
	OpF64Div      Opcode = 0xA3
	OpF64Min      Opcode = 0xA4
	OpF64Max      Opcode = 0xA5
	OpF64Copysign Opcode = 0xA6
)

// Conversion instructions.
const (
	OpI32WrapI64        Opcode = 0xA7
	OpI32TruncF32S      Opcode = 0xA8
	OpI32TruncF32U      Opcode = 0xA9
	OpI32TruncF64S      Opcode = 0xAA
	OpI32TruncF64U      Opcode = 0xAB
	OpI64ExtendI32S     Opcode = 0xAC
	OpI64ExtendI32U     Opcode = 0xAD
	OpI64TruncF32S      Opcode = 0xAE
	OpI64TruncF32U      Opcode = 0xAF
	OpI64TruncF64S      Opcode = 0xB0
	OpI64TruncF64U      Opcode = 0xB1
	OpF32ConvertI32S    Opcode = 0xB2
	OpF32ConvertI32U    Opcode = 0xB3
	OpF32ConvertI64S    Opcode = 0xB4
	OpF32ConvertI64U    Opcode = 0xB5
	OpF32DemoteF64      Opcode = 0xB6
	OpF64ConvertI32S    Opcode = 0xB7
	OpF64ConvertI32U    Opcode = 0xB8
	OpF64ConvertI64S    Opcode = 0xB9
	OpF64ConvertI64U    Opcode = 0xBA
	OpF64PromoteF32     Opcode = 0xBB
	OpI32ReinterpretF32 Opcode = 0xBC
	OpI64ReinterpretF64 Opcode = 0xBD
	OpF32ReinterpretI32 Opcode = 0xBE
	OpF64ReinterpretI64 Opcode = 0xBF
)

var opNames = map[Opcode]string{
	OpUnreachable: "unreachable", OpNop: "nop", OpBlock: "block", OpLoop: "loop",
	OpIf: "if", OpElse: "else", OpEnd: "end", OpBr: "br", OpBrIf: "br_if",
	OpBrTable: "br_table", OpReturn: "return", OpCall: "call", OpCallIndirect: "call_indirect",
	OpDrop: "drop", OpSelect: "select",
	OpLocalGet: "local.get", OpLocalSet: "local.set", OpLocalTee: "local.tee",
	OpGlobalGet: "global.get", OpGlobalSet: "global.set",
	OpI32Load: "i32.load", OpI64Load: "i64.load", OpF32Load: "f32.load", OpF64Load: "f64.load",
	OpI32Load8S: "i32.load8_s", OpI32Load8U: "i32.load8_u", OpI32Load16S: "i32.load16_s", OpI32Load16U: "i32.load16_u",
	OpI64Load8S: "i64.load8_s", OpI64Load8U: "i64.load8_u", OpI64Load16S: "i64.load16_s", OpI64Load16U: "i64.load16_u",
	OpI64Load32S: "i64.load32_s", OpI64Load32U: "i64.load32_u",
	OpI32Store: "i32.store", OpI64Store: "i64.store", OpF32Store: "f32.store", OpF64Store: "f64.store",
	OpI32Store8: "i32.store8", OpI32Store16: "i32.store16",
	OpI64Store8: "i64.store8", OpI64Store16: "i64.store16", OpI64Store32: "i64.store32",
	OpMemorySize: "memory.size", OpMemoryGrow: "memory.grow",
	OpI32Const: "i32.const", OpI64Const: "i64.const", OpF32Const: "f32.const", OpF64Const: "f64.const",
	OpI32Eqz: "i32.eqz", OpI32Eq: "i32.eq", OpI32Ne: "i32.ne", OpI32LtS: "i32.lt_s", OpI32LtU: "i32.lt_u",
	OpI32GtS: "i32.gt_s", OpI32GtU: "i32.gt_u", OpI32LeS: "i32.le_s", OpI32LeU: "i32.le_u",
	OpI32GeS: "i32.ge_s", OpI32GeU: "i32.ge_u",
	OpI64Eqz: "i64.eqz", OpI64Eq: "i64.eq", OpI64Ne: "i64.ne", OpI64LtS: "i64.lt_s", OpI64LtU: "i64.lt_u",
	OpI64GtS: "i64.gt_s", OpI64GtU: "i64.gt_u", OpI64LeS: "i64.le_s", OpI64LeU: "i64.le_u",
	OpI64GeS: "i64.ge_s", OpI64GeU: "i64.ge_u",
	OpF32Eq: "f32.eq", OpF32Ne: "f32.ne", OpF32Lt: "f32.lt", OpF32Gt: "f32.gt", OpF32Le: "f32.le", OpF32Ge: "f32.ge",
	OpF64Eq: "f64.eq", OpF64Ne: "f64.ne", OpF64Lt: "f64.lt", OpF64Gt: "f64.gt", OpF64Le: "f64.le", OpF64Ge: "f64.ge",
	OpI32Clz: "i32.clz", OpI32Ctz: "i32.ctz", OpI32Popcnt: "i32.popcnt",
	OpI32Add: "i32.add", OpI32Sub: "i32.sub", OpI32Mul: "i32.mul",
	OpI32DivS: "i32.div_s", OpI32DivU: "i32.div_u", OpI32RemS: "i32.rem_s", OpI32RemU: "i32.rem_u",
	OpI32And: "i32.and", OpI32Or: "i32.or", OpI32Xor: "i32.xor",
	OpI32Shl: "i32.shl", OpI32ShrS: "i32.shr_s", OpI32ShrU: "i32.shr_u", OpI32Rotl: "i32.rotl", OpI32Rotr: "i32.rotr",
	OpI64Clz: "i64.clz", OpI64Ctz: "i64.ctz", OpI64Popcnt: "i64.popcnt",
	OpI64Add: "i64.add", OpI64Sub: "i64.sub", OpI64Mul: "i64.mul",
	OpI64DivS: "i64.div_s", OpI64DivU: "i64.div_u", OpI64RemS: "i64.rem_s", OpI64RemU: "i64.rem_u",
	OpI64And: "i64.and", OpI64Or: "i64.or", OpI64Xor: "i64.xor",
	OpI64Shl: "i64.shl", OpI64ShrS: "i64.shr_s", OpI64ShrU: "i64.shr_u", OpI64Rotl: "i64.rotl", OpI64Rotr: "i64.rotr",
	OpF32Abs: "f32.abs", OpF32Neg: "f32.neg", OpF32Ceil: "f32.ceil", OpF32Floor: "f32.floor",
	OpF32Trunc: "f32.trunc", OpF32Nearest: "f32.nearest", OpF32Sqrt: "f32.sqrt",
	OpF32Add: "f32.add", OpF32Sub: "f32.sub", OpF32Mul: "f32.mul", OpF32Div: "f32.div",
	OpF32Min: "f32.min", OpF32Max: "f32.max", OpF32Copysign: "f32.copysign",
	OpF64Abs: "f64.abs", OpF64Neg: "f64.neg", OpF64Ceil: "f64.ceil", OpF64Floor: "f64.floor",
	OpF64Trunc: "f64.trunc", OpF64Nearest: "f64.nearest", OpF64Sqrt: "f64.sqrt",
	OpF64Add: "f64.add", OpF64Sub: "f64.sub", OpF64Mul: "f64.mul", OpF64Div: "f64.div",
	OpF64Min: "f64.min", OpF64Max: "f64.max", OpF64Copysign: "f64.copysign",
	OpI32WrapI64:   "i32.wrap_i64",
	OpI32TruncF32S: "i32.trunc_f32_s", OpI32TruncF32U: "i32.trunc_f32_u",
	OpI32TruncF64S: "i32.trunc_f64_s", OpI32TruncF64U: "i32.trunc_f64_u",
	OpI64ExtendI32S: "i64.extend_i32_s", OpI64ExtendI32U: "i64.extend_i32_u",
	OpI64TruncF32S: "i64.trunc_f32_s", OpI64TruncF32U: "i64.trunc_f32_u",
	OpI64TruncF64S: "i64.trunc_f64_s", OpI64TruncF64U: "i64.trunc_f64_u",
	OpF32ConvertI32S: "f32.convert_i32_s", OpF32ConvertI32U: "f32.convert_i32_u",
	OpF32ConvertI64S: "f32.convert_i64_s", OpF32ConvertI64U: "f32.convert_i64_u",
	OpF32DemoteF64:   "f32.demote_f64",
	OpF64ConvertI32S: "f64.convert_i32_s", OpF64ConvertI32U: "f64.convert_i32_u",
	OpF64ConvertI64S: "f64.convert_i64_s", OpF64ConvertI64U: "f64.convert_i64_u",
	OpF64PromoteF32:     "f64.promote_f32",
	OpI32ReinterpretF32: "i32.reinterpret_f32", OpI64ReinterpretF64: "i64.reinterpret_f64",
	OpF32ReinterpretI32: "f32.reinterpret_i32", OpF64ReinterpretI64: "f64.reinterpret_i64",
	OpI32Extend8S: "i32.extend8_s", OpI32Extend16S: "i32.extend16_s",
	OpI64Extend8S: "i64.extend8_s", OpI64Extend16S: "i64.extend16_s", OpI64Extend32S: "i64.extend32_s",
}

var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

// opNameTable is opNames as a dense array: String is on the hot path of the
// runtime's hook dispatch (one call per instrumented instruction executed),
// where a map lookup per event dominated the per-hook profile.
var opNameTable = func() [256]string {
	var t [256]string
	for op, name := range opNames {
		t[op] = name
	}
	// The 0xFC prefix renders as a placeholder here; Instr.String resolves
	// the real subopcode name via MiscName without the prefix becoming Known.
	t[OpMiscPrefix] = "0xfc"
	return t
}()

// knownTable is opNames' key set as a dense array: Known runs once per
// instruction in the decoder and in both encoder passes.
var knownTable = func() [256]bool {
	var t [256]bool
	for op := range opNames {
		t[op] = true
	}
	return t
}()

// OpcodeByName returns the opcode with the given text-format name.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := opByName[name]
	return op, ok
}

// Known reports whether op is a valid MVP opcode.
func (op Opcode) Known() bool { return knownTable[op] }

func (op Opcode) String() string {
	if s := opNameTable[op]; s != "" {
		return s
	}
	return fmt.Sprintf("opcode(0x%02x)", byte(op))
}

// IsLoad reports whether op is one of the 14 memory load instructions.
func (op Opcode) IsLoad() bool { return op >= OpI32Load && op <= OpI64Load32U }

// IsStore reports whether op is one of the 9 memory store instructions.
func (op Opcode) IsStore() bool { return op >= OpI32Store && op <= OpI64Store32 }

// IsConst reports whether op is a typed constant instruction.
func (op Opcode) IsConst() bool { return op >= OpI32Const && op <= OpF64Const }

// IsUnary reports whether op is a unary numeric instruction (one operand,
// one result): eqz tests, integer bit-counts, float unary math, conversions,
// and the sign-extension operators.
func (op Opcode) IsUnary() bool {
	switch op {
	case OpI32Eqz, OpI64Eqz:
		return true
	}
	switch {
	case op >= OpI32Clz && op <= OpI32Popcnt,
		op >= OpI64Clz && op <= OpI64Popcnt,
		op >= OpF32Abs && op <= OpF32Sqrt,
		op >= OpF64Abs && op <= OpF64Sqrt,
		op >= OpI32WrapI64 && op <= OpF64ReinterpretI64,
		op >= OpI32Extend8S && op <= OpI64Extend32S:
		return true
	}
	return false
}

// IsBinary reports whether op is a binary numeric instruction (two operands,
// one result): comparisons (except eqz) and two-operand arithmetic.
func (op Opcode) IsBinary() bool {
	switch {
	case op >= OpI32Eq && op <= OpI32GeU,
		op >= OpI64Eq && op <= OpI64GeU,
		op >= OpF32Eq && op <= OpF64Ge,
		op >= OpI32Add && op <= OpI32Rotr,
		op >= OpI64Add && op <= OpI64Rotr,
		op >= OpF32Add && op <= OpF32Copysign,
		op >= OpF64Add && op <= OpF64Copysign:
		return true
	}
	return false
}

// LoadStoreType returns the value type read or written by a load/store
// opcode, and the number of bytes accessed in memory.
func (op Opcode) LoadStoreType() (t ValType, byteSize uint32) {
	switch op {
	case OpI32Load, OpI32Store:
		return I32, 4
	case OpI64Load, OpI64Store:
		return I64, 8
	case OpF32Load, OpF32Store:
		return F32, 4
	case OpF64Load, OpF64Store:
		return F64, 8
	case OpI32Load8S, OpI32Load8U, OpI32Store8:
		return I32, 1
	case OpI32Load16S, OpI32Load16U, OpI32Store16:
		return I32, 2
	case OpI64Load8S, OpI64Load8U, OpI64Store8:
		return I64, 1
	case OpI64Load16S, OpI64Load16U, OpI64Store16:
		return I64, 2
	case OpI64Load32S, OpI64Load32U, OpI64Store32:
		return I64, 4
	}
	panic("wasm: LoadStoreType on non-memory opcode " + op.String())
}
