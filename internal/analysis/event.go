package analysis

// The event-stream surface: hook events as packed, fixed-width records
// instead of synchronous callbacks. Where the callback API dispatches every
// low-level hook straight into analysis Go code on the program's hot path,
// the stream API appends one Event record per hook call to a per-session
// batch buffer and hands whole batches to the consumer — decoupling event
// production from analysis cost (and enabling off-thread consumers).
//
// Event is deliberately dumb: 40 bytes, pointer-free, meaningful only
// together with the instrumentation's hook table. The EventTable (built from
// core.Metadata) is the decode side: it maps Event.Hook back to the hook's
// kind, instruction name, block kind, and payload types, exactly the
// information the per-spec trampolines capture at compile time on the
// callback path.

import "wasabi/internal/wasm"

// EventCont marks a continuation record: when an event's logical value
// vector does not fit the primary record (a call with many arguments), the
// encoder emits the primary record followed by continuation records carrying
// up to 3 further values each. Continuations always directly follow their
// primary record within the same batch.
const EventCont = uint16(0xFFFF)

// EventSynth marks a synthesized record with no backing hook spec: the end
// records replayed by a br_table branch when the module was instrumented
// without end hooks (the replay data lives in the br_table metadata, so the
// callback path fires those ends too). Synthesized records are fully
// self-describing — end records carry their block kind as a code in
// Vals[0] — so consumers must decode them by Kind, not through
// EventTable.Spec.
const EventSynth = uint16(0xFFFE)

// Event is one packed hook-event record: 16 bytes of header plus up to three
// 8-byte value slots. Records are fixed-width so a batch is a flat
// []Event with no per-event allocation or pointer chasing.
//
// Which fields are meaningful depends on Kind (for the fixed-shape kinds,
// the runtime's recordFields table is this table in executable form):
//
//	Kind          Aux                  Vals[0]          Vals[1]      Vals[2]
//	nop/unreach/
//	start/begin   —                    —                —            —
//	if            condition (0/1)      —                —            —
//	br            raw label            target instr     —            —
//	br_if         condition (0/1)      raw label        target instr —
//	br_table      runtime index        metadata index   —            —
//	end           begin instr (int32)  block kind code  —            —
//	const/drop    —                    value            —            —
//	select        condition (0/1)      first            second       —
//	unary         —                    input            result       —
//	binary        —                    first            second       result
//	local/global  variable index       value            —            —
//	load/store    static offset        address          value        —
//	memory_size   current pages        —                —            —
//	memory_grow   delta pages          previous pages   —            —
//	block_probe   block end instr      —                —            —
//	call (pre)    target func (int32)  table idx (i64,  arg0         arg1
//	                                   -1 if direct)    (rest in continuations)
//	call (post)/
//	return        —                    result0          result1      result2
//
// Value slots hold the raw 64-bit representation of a wasm value (i32/f32
// zero-extended, floats as IEEE bits — the same representation as
// Value.Bits); their types are static per hook and recovered through the
// EventTable. Locations are always in the original (uninstrumented) index
// space, like the callback API's Location.
type Event struct {
	Hook  uint16   // index into the instrumentation's hook table; EventCont for continuations
	Kind  HookKind // high-level hook kind (copied from the spec; set on continuations too)
	Pack  uint8    // bits 0-1: occupied Vals slots; bits 2-3/4-5/6-7: type tags of slots 0/1/2
	Func  int32    // location: original function index
	Instr int32    // location: instruction index (-1 for function-level events)
	Aux   uint32   // kind-specific scalar, see the table above
	Vals  [3]uint64
}

// Loc returns the event's location.
func (e *Event) Loc() Location { return Location{Func: int(e.Func), Instr: int(e.Instr)} }

// Val decodes occupied slot i into a typed Value using the record's packed
// type tag.
func (e *Event) Val(i int) Value {
	return Value{Type: TagType(e.Pack >> (2 + 2*uint(i)) & 3), Bits: e.Vals[i]}
}

// Type tags packed into Event.Pack, 2 bits per value slot.
const (
	tagI32 = 0
	tagI64 = 1
	tagF32 = 2
	tagF64 = 3
)

// TypeTag returns the 2-bit tag of a value type.
func TypeTag(t wasm.ValType) uint8 {
	switch t {
	case wasm.I64:
		return tagI64
	case wasm.F32:
		return tagF32
	case wasm.F64:
		return tagF64
	default:
		return tagI32
	}
}

// TagType is the inverse of TypeTag.
func TagType(tag uint8) wasm.ValType {
	switch tag {
	case tagI64:
		return wasm.I64
	case tagF32:
		return wasm.F32
	case tagF64:
		return wasm.F64
	default:
		return wasm.I32
	}
}

// PackSlots builds an Event.Pack byte for n occupied slots with the given
// types (len(ts) >= n). Encoders call this once at compile time per record
// shape, never per event.
func PackSlots(ts ...wasm.ValType) uint8 {
	p := uint8(len(ts))
	for i, t := range ts {
		p |= TypeTag(t) << (2 + 2*uint(i))
	}
	return p
}

// Block kind codes, carried by end records so they decode without a spec
// lookup (required for the synthesized br_table end replays, see
// EventSynth).
var blockKindCodes = [...]BlockKind{BlockFunction, BlockBlock, BlockLoop, BlockIf, BlockElse}

// Code returns the stable numeric code of a block kind.
func (k BlockKind) Code() uint32 {
	for i, b := range blockKindCodes {
		if b == k {
			return uint32(i)
		}
	}
	return 0
}

// BlockKindOf is the inverse of BlockKind.Code.
func BlockKindOf(code uint32) BlockKind {
	if int(code) < len(blockKindCodes) {
		return blockKindCodes[code]
	}
	return BlockFunction
}

// EventSpec is the decode-side description of one low-level hook: everything
// a stream consumer needs to turn the hook's records back into typed,
// named events. Indexed by Event.Hook in an EventTable.
type EventSpec struct {
	Kind     HookKind
	Name     string         // low-level hook name (e.g. "binary_i32.add")
	Op       string         // instruction name for op-carrying hooks (e.g. "i32.add"), else ""
	Block    BlockKind      // block kind for begin/end hooks
	Types    []wasm.ValType // logical payload types, as in the hook spec
	Indirect bool           // call_pre through a table
	Post     bool           // call_post (vs call_pre) for KindCall
}

// ValueTypes returns the types of the hook's logical value vector (call
// arguments or call/return results) for the vector-carrying hooks.
func (s *EventSpec) ValueTypes() []wasm.ValType {
	if s.Kind == KindCall && !s.Post {
		return s.Types[1:] // Types[0] is the i32 target / table index
	}
	return s.Types
}

// EventTable maps Event.Hook indices back to their specs. It is immutable
// and shared by every stream of one compiled instrumentation.
type EventTable struct {
	Specs []EventSpec
}

// Spec returns the spec of an event record. Not valid for EventCont or
// EventSynth records, which have no hook-table entry (synthesized end
// records are self-describing: Kind plus the block kind code in Vals[0]).
func (t *EventTable) Spec(e *Event) *EventSpec { return &t.Specs[e.Hook] }

// AppendValues decodes the logical value vector of the vector-carrying event
// at batch[i] (call_pre arguments, call_post/return results), reading the
// primary record and any continuation records that follow it, and appends
// the typed values to dst. It returns the extended slice and the index of
// the first record after the event. For any other event kind it appends
// nothing and returns i+1.
func (t *EventTable) AppendValues(dst []Value, batch []Event, i int) ([]Value, int) {
	e := &batch[i]
	spec := t.Spec(e)
	ts := spec.ValueTypes()
	i++
	if spec.Kind != KindCall && spec.Kind != KindReturn {
		return dst, i
	}
	// Inline slots of the primary record: call_pre holds the table index in
	// Vals[0], so its arguments start at slot 1.
	slot, rec := 0, e
	if spec.Kind == KindCall && !spec.Post {
		slot = 1
	}
	for _, vt := range ts {
		if slot == len(rec.Vals) {
			rec, slot = &batch[i], 0 // continuation records directly follow
			i++
		}
		dst = append(dst, Value{Type: vt, Bits: rec.Vals[slot]})
		slot++
	}
	return dst, i
}

// Next returns the index of the first record after the event at batch[i],
// skipping its continuation records.
func (t *EventTable) Next(batch []Event, i int) int {
	for i++; i < len(batch) && batch[i].Hook == EventCont; i++ {
	}
	return i
}

// EventSink consumes batches of hook-event records. Batches are BORROWED:
// the slice (and every record in it) is valid only until the consumer asks
// for the next batch — the same buffer is reused for later events. A sink
// that wants to retain records must copy them.
type EventSink interface {
	Events(batch []Event)
}

// EventStreamer is implemented by stream-native analyses: instead of (or in
// addition to) the callback hook interfaces, they declare which event
// classes they consume. Session.Stream uses StreamCaps to decide which
// hooks get record encoders; CompiledAnalysis.NewSession accepts an
// analysis whose only capabilities are stream capabilities.
type EventStreamer interface {
	StreamCaps() Cap
}

// EventTableReceiver is implemented by stream consumers that want the
// decode table before events start flowing (the stream-side analogue of
// ModuleInfoReceiver).
type EventTableReceiver interface {
	SetEventTable(t *EventTable)
}
