package runtime

// Per-spec compiled record encoders: the producer half of the event-stream
// surface and the sibling of trampoline.go. A trampoline decodes one lowered
// hook-argument vector and calls analysis Go code; an encoder decodes the
// same vector — through the same precomputed HookSpec.Layout() offsets,
// including the i64 lo/hi re-joins — and instead appends one packed
// analysis.Event record to the session's Emitter.
//
// Every fixed-shape kind is encoded by one table-driven closure: the kind's
// recordFields row names the HookSpec.Types entry whose lowered word becomes
// Aux and the entries copied into Vals, which makes the field table in
// analysis/event.go executable. A new fixed-shape kind needs one row here,
// one trampoline case, and one case in the test-only reference dispatcher.
// Call and return (value vectors that spill into continuation records) and
// br_table (end replay from metadata) keep specialized encoders. Everything
// static about a record (hook index, kind, Pack byte, slot offsets and
// types, continuation plan) is computed once here, at Imports() time; the
// per-event path only copies words.
//
// Encoders use the interpreter's Emit host-call convention (the record-emit
// twin of Fast, see iCallHostEmit): args is a read-only stack window, never
// retained, and failure is reported only by a trap panic — the hot loop has
// no error check. Hooks outside the stream capability set (see live)
// compile to a shared no-op and are elided by the interpreter exactly like
// dead callback hooks.
//
// Flush points, per the stream contract: batch-full (Emitter.emit),
// top-level call completion (the session installs Emitter.Flush as the
// instance's top-return hook, independent of which hooks are streamed),
// and explicit Emitter.Flush/Close.

import (
	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// emitFn is the compiled record encoder of one low-level hook; it matches
// interp.HostFunc.Emit.
type emitFn = func(inst *interp.Instance, args []interp.Value)

// nopEmit is the shared encoder of every hook outside the stream caps.
func nopEmit(*interp.Instance, []interp.Value) {}

// noAux marks a recordFields row whose records leave Aux zero.
const noAux = -1

// recordField is one fixed-shape kind's row of the record-field table: the
// HookSpec.Types index whose lowered word becomes Event.Aux (noAux: none)
// and the Types indices that fill Event.Vals, in slot order.
type recordField struct {
	aux  int
	vals []int
}

// recordFields is the field table of analysis.Event in executable form, one
// row per fixed-shape kind. Call, return and br_table have no row.
var recordFields = [analysis.NumKinds]*recordField{
	analysis.KindNop:         {aux: noAux},
	analysis.KindUnreachable: {aux: noAux},
	analysis.KindStart:       {aux: noAux},
	analysis.KindBegin:       {aux: noAux},
	analysis.KindIf:          {aux: 0},                           // condition
	analysis.KindEnd:         {aux: 0},                           // begin instr; Vals[0] is set per spec
	analysis.KindMemorySize:  {aux: 0},                           // current pages
	analysis.KindBlockProbe:  {aux: 0},                           // block end instr
	analysis.KindBr:          {aux: 0, vals: []int{1}},           // label; target instr
	analysis.KindBrIf:        {aux: 2, vals: []int{0, 1}},        // condition; label, target instr
	analysis.KindConst:       {aux: noAux, vals: []int{0}},       // value
	analysis.KindDrop:        {aux: noAux, vals: []int{0}},       // value
	analysis.KindSelect:      {aux: 0, vals: []int{1, 2}},        // condition; first, second
	analysis.KindUnary:       {aux: noAux, vals: []int{0, 1}},    // input, result
	analysis.KindBinary:      {aux: noAux, vals: []int{0, 1, 2}}, // first, second, result
	analysis.KindLocal:       {aux: 0, vals: []int{1}},           // index; value
	analysis.KindGlobal:      {aux: 0, vals: []int{1}},           // index; value
	analysis.KindLoad:        {aux: 0, vals: []int{1, 2}},        // static offset; address, value
	analysis.KindStore:       {aux: 0, vals: []int{1, 2}},        // static offset; address, value
	analysis.KindMemoryGrow:  {aux: 0, vals: []int{1}},           // delta; previous pages
}

// setLoc fills the location header from the two leading location words.
func setLoc(e *analysis.Event, args []interp.Value) {
	e.Func = int32(uint32(args[0]))
	e.Instr = int32(uint32(args[1]))
}

// encSlot is one value of a record group: where it sits in the lowered
// vector and its logical type.
type encSlot struct {
	off int
	t   wasm.ValType
}

// encRec is the compile-time plan of one record of a group: which Vals slot
// the values start at, the precomputed Pack byte, and the slots to copy.
type encRec struct {
	pack  uint8
	start int
	slots []encSlot
}

// fillRec copies one planned record's values from the lowered vector.
func fillRec(e *analysis.Event, rec *encRec, args []interp.Value) {
	for i := range rec.slots {
		e.Vals[rec.start+i] = rawAt(args, rec.slots[i].off, rec.slots[i].t)
	}
}

// planValues lays a logical value vector out over a primary record (whose
// first Vals slot is start, with head occupying the slots before it) and as
// many continuation records as needed, 3 values each. head holds the types
// of the primary record's leading non-vector slots (e.g. call_pre's table
// index) so its Pack byte is complete.
func planValues(offs []int, ts []wasm.ValType, start int, head ...wasm.ValType) []encRec {
	recs := []encRec{{start: start}}
	cur := 0
	for i := range ts {
		if start+len(recs[cur].slots) == 3 {
			recs = append(recs, encRec{})
			cur++
			start = 0
		}
		recs[cur].slots = append(recs[cur].slots, encSlot{off: offs[i], t: ts[i]})
	}
	// Pack bytes: the primary includes the head slots, continuations only
	// their own values.
	primTypes := append(append([]wasm.ValType{}, head...), slotTypes(recs[0].slots)...)
	recs[0].pack = analysis.PackSlots(primTypes...)
	for i := 1; i < len(recs); i++ {
		recs[i].pack = analysis.PackSlots(slotTypes(recs[i].slots)...)
	}
	return recs
}

func slotTypes(slots []encSlot) []wasm.ValType {
	ts := make([]wasm.ValType, len(slots))
	for i := range slots {
		ts[i] = slots[i].t
	}
	return ts
}

// emitGroup emits a primary record and its planned continuations as one
// atomic group (never straddling a batch boundary).
func emitGroup(em *Emitter, e analysis.Event, recs []encRec, args []interp.Value) {
	em.reserve(len(recs))
	fillRec(&e, &recs[0], args)
	em.emit(e)
	for i := 1; i < len(recs); i++ {
		c := analysis.Event{
			Hook: analysis.EventCont, Kind: e.Kind, Pack: recs[i].pack,
			Func: e.Func, Instr: e.Instr,
		}
		fillRec(&c, &recs[i], args)
		em.emit(c)
	}
}

// compileEncoder builds the record encoder for one hook spec against its
// precomputed lowered-arg layout. hookIdx is the spec's index in the
// metadata hook table (what Event.Hook carries). noop reports that the
// stream capability set cannot observe this hook, so the interpreter may
// elide its call sites; the returned fn is still always callable.
func (r *Runtime) compileEncoder(spec *core.HookSpec, lay core.ArgLayout, hookIdx int) (fn emitFn, noop bool) {
	if !live(r.streamCaps, spec) {
		return nopEmit, true
	}
	tmpl := analysis.Event{Hook: uint16(hookIdx), Kind: spec.Kind}
	switch spec.Kind {
	case analysis.KindCall:
		return r.callEncoder(tmpl, spec, lay), false
	case analysis.KindReturn:
		return r.groupEncoder(tmpl, spec.Name, lay.Arity, planValues(lay.Offs, spec.Types, 0)), false
	case analysis.KindBrTable:
		return r.brTableEncoder(tmpl, spec.Name, lay.Arity), false
	case analysis.KindEnd:
		// Vals[0] = block kind code, so end records decode without a spec
		// (matching the synthesized br_table replays).
		tmpl.Pack = analysis.PackSlots(wasm.I32)
		tmpl.Vals[0] = uint64(spec.Block.Code())
	}
	return r.fieldEncoder(tmpl, spec, lay, recordFields[spec.Kind]), false
}

// fieldEncoder is the one encoder of every fixed-shape kind: it copies the
// Aux word and the Vals slots its recordFields row names.
func (r *Runtime) fieldEncoder(tmpl analysis.Event, spec *core.HookSpec, lay core.ArgLayout, row *recordField) emitFn {
	em := r.emitter
	arity, name := lay.Arity, spec.Name
	auxOff := noAux
	if row.aux != noAux {
		auxOff = lay.Offs[row.aux]
	}
	rec := encRec{slots: make([]encSlot, len(row.vals))}
	for i, ti := range row.vals {
		rec.slots[i] = encSlot{off: lay.Offs[ti], t: spec.Types[ti]}
	}
	if len(rec.slots) > 0 {
		tmpl.Pack = analysis.PackSlots(slotTypes(rec.slots)...)
	}
	return func(_ *interp.Instance, args []interp.Value) {
		if len(args) != arity {
			panic(arityTrap(name, arity, len(args)))
		}
		e := tmpl
		setLoc(&e, args)
		if auxOff != noAux {
			e.Aux = uint32(args[auxOff])
		}
		fillRec(&e, &rec, args)
		em.emit(e)
	}
}

// groupEncoder emits a value vector as a primary record plus continuations
// (return, call_post).
func (r *Runtime) groupEncoder(tmpl analysis.Event, name string, arity int, recs []encRec) emitFn {
	em := r.emitter
	return func(_ *interp.Instance, args []interp.Value) {
		if len(args) != arity {
			panic(arityTrap(name, arity, len(args)))
		}
		e := tmpl
		setLoc(&e, args)
		emitGroup(em, e, recs, args)
	}
}

// callEncoder specializes the three call-hook shapes, mirroring
// callTrampoline: call_post, direct call_pre, and indirect call_pre with
// table resolution. Argument/result vectors that exceed the record's free
// slots spill into continuation records (see planValues).
func (r *Runtime) callEncoder(tmpl analysis.Event, spec *core.HookSpec, lay core.ArgLayout) emitFn {
	em := r.emitter
	arity, name := lay.Arity, spec.Name
	if spec.Post {
		return r.groupEncoder(tmpl, name, arity, planValues(lay.Offs, spec.Types, 0))
	}
	// Vals[0] holds the table index (i64, -1 for direct calls); the callee
	// arguments start at slot 1. Types[0] is the i32 target / table index.
	recs := planValues(lay.Offs[1:], spec.Types[1:], 1, wasm.I64)
	if !spec.Indirect {
		tmpl.Vals[0] = ^uint64(0) // table index -1: direct call
		return func(_ *interp.Instance, args []interp.Value) {
			if len(args) != arity {
				panic(arityTrap(name, arity, len(args)))
			}
			e := tmpl
			setLoc(&e, args)
			e.Aux = uint32(args[2]) // target function index (original space)
			emitGroup(em, e, recs, args)
		}
	}
	return func(inst *interp.Instance, args []interp.Value) {
		if len(args) != arity {
			panic(arityTrap(name, arity, len(args)))
		}
		tblIdx := uint32(args[2])
		e := tmpl
		setLoc(&e, args)
		e.Aux = uint32(int32(r.resolveIndirect(inst, tblIdx)))
		e.Vals[0] = uint64(int64(tblIdx))
		emitGroup(em, e, recs, args)
	}
}

// brTableEncoder handles the one hook whose encoding consults metadata at
// run time: it replays the end records of the blocks left by the taken
// branch (when end events are streamed) and then emits the br_table record
// itself (when br_table events are streamed) — the exact event order the
// callback dispatcher produces.
func (r *Runtime) brTableEncoder(tmpl analysis.Event, name string, arity int) emitFn {
	em := r.emitter
	emitEnds := r.streamCaps.Has(analysis.CapEnd)
	emitTable := r.streamCaps.Has(analysis.CapBrTable)
	// Replayed end records reference the end hook's table index per block
	// kind when one was generated; when the module was instrumented without
	// end hooks (the replay data lives in the br_table metadata either way)
	// they carry the EventSynth sentinel and decode by Kind + kind code.
	endHook := map[analysis.BlockKind]uint16{}
	for i := range r.meta.Hooks {
		if r.meta.Hooks[i].Kind == analysis.KindEnd {
			endHook[r.meta.Hooks[i].Block] = uint16(i)
		}
	}
	endHookOf := func(k analysis.BlockKind) uint16 {
		if h, ok := endHook[k]; ok {
			return h
		}
		return analysis.EventSynth
	}
	packI32 := analysis.PackSlots(wasm.I32) // precomputed like every template Pack
	return func(_ *interp.Instance, args []interp.Value) {
		if len(args) != arity {
			panic(arityTrap(name, arity, len(args)))
		}
		e := tmpl
		setLoc(&e, args)
		metaIdx := int(int32(uint32(args[2])))
		idx := uint32(args[3])
		_, taken, trap := r.brTableTaken(e.Loc(), metaIdx, idx)
		if trap != nil {
			panic(trap)
		}
		if emitEnds {
			for _, end := range taken.Ends {
				em.emit(analysis.Event{
					Hook:  endHookOf(end.Kind),
					Kind:  analysis.KindEnd,
					Pack:  packI32,
					Func:  e.Func,
					Instr: int32(end.End),
					Aux:   uint32(int32(end.Begin)),
					Vals:  [3]uint64{uint64(end.Kind.Code())},
				})
			}
		}
		if emitTable {
			e.Aux = idx
			e.Pack = packI32
			e.Vals[0] = uint64(uint32(metaIdx))
			em.emit(e)
		}
	}
}
