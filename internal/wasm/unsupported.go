package wasm

import "fmt"

// Post-MVP opcodes. The sign-extension operators (0xC0–0xC4) are implemented
// and fully Known: they decode, validate, instrument, and execute like any
// other unary numeric instruction. The 0xFC miscellaneous prefix carries its
// subopcode in Instr.Idx; the saturating-truncation and memory.copy /
// memory.fill subopcodes are implemented, while the passive-segment and
// table subopcodes remain recognized-but-rejected: the decoder represents
// them so validation can fail with a typed, positioned "unsupported" error
// instead of a generic decode failure — or worse, an unvalidated module
// faulting mid-execution.
const (
	// Sign-extension operators proposal (implemented).
	OpI32Extend8S  Opcode = 0xC0
	OpI32Extend16S Opcode = 0xC1
	OpI64Extend8S  Opcode = 0xC2
	OpI64Extend16S Opcode = 0xC3
	OpI64Extend32S Opcode = 0xC4
	// OpMiscPrefix is the 0xFC miscellaneous-instruction prefix byte
	// (saturating truncation, bulk memory). For a decoded 0xFC instruction
	// the subopcode is carried in Instr.Idx. The prefix itself is
	// deliberately NOT in opNames: Opcode.Known stays false, so every
	// consumer must dispatch on the subopcode explicitly rather than fall
	// into a single-byte generic path.
	OpMiscPrefix Opcode = 0xFC
)

// 0xFC subopcodes (the Instr.Idx of an OpMiscPrefix instruction).
const (
	MiscI32TruncSatF32S uint32 = 0
	MiscI32TruncSatF32U uint32 = 1
	MiscI32TruncSatF64S uint32 = 2
	MiscI32TruncSatF64U uint32 = 3
	MiscI64TruncSatF32S uint32 = 4
	MiscI64TruncSatF32U uint32 = 5
	MiscI64TruncSatF64S uint32 = 6
	MiscI64TruncSatF64U uint32 = 7
	MiscMemoryInit      uint32 = 8
	MiscDataDrop        uint32 = 9
	MiscMemoryCopy      uint32 = 10
	MiscMemoryFill      uint32 = 11
	MiscTableInit       uint32 = 12
	MiscElemDrop        uint32 = 13
	MiscTableCopy       uint32 = 14
)

// miscInstrs maps 0xFC subopcodes to their text name, source proposal, and
// whether the runtime implements them. Entries beyond this table are not
// valid WebAssembly and fail at decode.
var miscInstrs = map[uint32]struct {
	name, proposal string
	supported      bool
}{
	MiscI32TruncSatF32S: {"i32.trunc_sat_f32_s", "nontrapping-float-to-int", true},
	MiscI32TruncSatF32U: {"i32.trunc_sat_f32_u", "nontrapping-float-to-int", true},
	MiscI32TruncSatF64S: {"i32.trunc_sat_f64_s", "nontrapping-float-to-int", true},
	MiscI32TruncSatF64U: {"i32.trunc_sat_f64_u", "nontrapping-float-to-int", true},
	MiscI64TruncSatF32S: {"i64.trunc_sat_f32_s", "nontrapping-float-to-int", true},
	MiscI64TruncSatF32U: {"i64.trunc_sat_f32_u", "nontrapping-float-to-int", true},
	MiscI64TruncSatF64S: {"i64.trunc_sat_f64_s", "nontrapping-float-to-int", true},
	MiscI64TruncSatF64U: {"i64.trunc_sat_f64_u", "nontrapping-float-to-int", true},

	MiscMemoryInit: {"memory.init", "bulk-memory", false},
	MiscDataDrop:   {"data.drop", "bulk-memory", false},
	MiscMemoryCopy: {"memory.copy", "bulk-memory", true},
	MiscMemoryFill: {"memory.fill", "bulk-memory", true},
	MiscTableInit:  {"table.init", "bulk-memory", false},
	MiscElemDrop:   {"elem.drop", "bulk-memory", false},
	MiscTableCopy:  {"table.copy", "bulk-memory", false},
}

// miscKnown and miscSupported are miscInstrs' key set and supported flags as
// dense arrays indexed by subopcode (every subopcode is below MiscTableCopy+1).
var miscKnown, miscSupported = func() (known, supported [MiscTableCopy + 1]bool) {
	for sub, mi := range miscInstrs {
		known[sub] = true
		supported[sub] = mi.supported
	}
	return known, supported
}()

// MiscKnown reports whether sub is a recognized 0xFC subopcode (implemented
// or not); unrecognized subopcodes are not WebAssembly and fail at decode.
func MiscKnown(sub uint32) bool {
	return sub < uint32(len(miscKnown)) && miscKnown[sub]
}

// MiscSupported reports whether the runtime implements 0xFC subopcode sub.
func MiscSupported(sub uint32) bool {
	return sub < uint32(len(miscSupported)) && miscSupported[sub]
}

// MiscName returns the text-format name of a 0xFC subopcode.
func MiscName(sub uint32) string {
	if mi, ok := miscInstrs[sub]; ok {
		return mi.name
	}
	return fmt.Sprintf("0xfc subopcode %d", sub)
}

// MiscTruncSatSig returns the operand and result types of a saturating
// truncation subopcode (0–7). ok is false for every other subopcode.
func MiscTruncSatSig(sub uint32) (from, to ValType, ok bool) {
	if sub > MiscI64TruncSatF64U {
		return 0, 0, false
	}
	from = F32
	if sub&2 != 0 {
		from = F64
	}
	to = I32
	if sub >= MiscI64TruncSatF32S {
		to = I64
	}
	return from, to, true
}

// UnsupportedInfo reports whether in is a recognized post-MVP instruction
// the runtime does not implement, and if so its text-format name and the
// proposal it belongs to.
func UnsupportedInfo(in Instr) (name, proposal string, ok bool) {
	if in.Op != OpMiscPrefix {
		return "", "", false
	}
	if mi, known := miscInstrs[in.Idx]; known {
		if mi.supported {
			return "", "", false
		}
		return mi.name, mi.proposal, true
	}
	return fmt.Sprintf("0xfc subopcode %d", in.Idx), "miscellaneous", true
}
