package analyses

import (
	"fmt"
	"io"

	"wasabi/internal/analysis"
	"wasabi/internal/wasm"
)

// StreamTracer is the tracer ported to the event-stream surface: it consumes
// batches of packed records and reconstructs, line for line, the exact trace
// the callback Tracer produces. It doubles as the executable specification
// of the record format — the stream/callback parity test runs both tracers
// over the same workload and asserts identical output, which pins the
// per-kind record layouts, the i64 re-joins, the br_table end replay, and
// the continuation-record reassembly of call arguments.
type StreamTracer struct {
	Lines []string
	// MaxEvents bounds the trace; 0 means unbounded.
	MaxEvents int

	tbl     *analysis.EventTable
	scratch []analysis.Value // reused decode buffer for call/return vectors
}

// NewStreamTracer returns an unbounded stream tracer.
func NewStreamTracer() *StreamTracer { return &StreamTracer{} }

// StreamCaps declares that the tracer consumes every event class.
func (tr *StreamTracer) StreamCaps() analysis.Cap { return analysis.AllCaps }

// SetEventTable receives the decode table before events flow.
func (tr *StreamTracer) SetEventTable(tbl *analysis.EventTable) { tr.tbl = tbl }

func (tr *StreamTracer) emit(format string, args ...any) {
	if tr.MaxEvents > 0 && len(tr.Lines) >= tr.MaxEvents {
		return
	}
	tr.Lines = append(tr.Lines, fmt.Sprintf(format, args...))
}

// Events consumes one borrowed batch. Formats mirror Tracer method for
// method; every value is re-typed through the spec the record points at.
func (tr *StreamTracer) Events(batch []analysis.Event) {
	for i := 0; i < len(batch); {
		e := &batch[i]
		if e.Hook == analysis.EventCont {
			i++ // defensive: continuations are consumed by AppendValues below
			continue
		}
		// Synthesized records (br_table end replays without an end hook
		// spec) have no hook-table entry; every case that reaches spec
		// below is backed by a real hook.
		var spec *analysis.EventSpec
		if e.Hook != analysis.EventSynth {
			spec = tr.tbl.Spec(e)
		}
		l := e.Loc()
		switch e.Kind {
		case analysis.KindNop:
			tr.emit("%v nop", l)
		case analysis.KindUnreachable:
			tr.emit("%v unreachable", l)
		case analysis.KindIf:
			tr.emit("%v if %v", l, e.Aux != 0)
		case analysis.KindBr:
			tr.emit("%v br ->%v", l, analysis.Location{Func: l.Func, Instr: int(int32(uint32(e.Vals[0])))})
		case analysis.KindBrIf:
			tr.emit("%v br_if %v ->%v", l, e.Aux != 0,
				analysis.Location{Func: l.Func, Instr: int(int32(uint32(e.Vals[1])))})
		case analysis.KindBrTable:
			tr.emit("%v br_table [%d]", l, e.Aux)
		case analysis.KindBegin:
			tr.emit("%v begin %s", l, spec.Block)
		case analysis.KindEnd:
			// End records are self-describing (block kind code in Vals[0]),
			// so synthesized br_table replays decode like instrumented ends.
			tr.emit("%v end %s (begin %v)", l, analysis.BlockKindOf(uint32(e.Vals[0])),
				analysis.Location{Func: l.Func, Instr: int(int32(e.Aux))})
		case analysis.KindConst:
			tr.emit("%v const %v", l, val(spec.Types[0], e.Vals[0]))
		case analysis.KindDrop:
			tr.emit("%v drop %v", l, val(spec.Types[0], e.Vals[0]))
		case analysis.KindSelect:
			t := spec.Types[1]
			tr.emit("%v select %v %v %v", l, e.Aux != 0, val(t, e.Vals[0]), val(t, e.Vals[1]))
		case analysis.KindUnary:
			tr.emit("%v %s %v -> %v", l, spec.Op, val(spec.Types[0], e.Vals[0]), val(spec.Types[1], e.Vals[1]))
		case analysis.KindBinary:
			tr.emit("%v %s %v %v -> %v", l, spec.Op,
				val(spec.Types[0], e.Vals[0]), val(spec.Types[1], e.Vals[1]), val(spec.Types[2], e.Vals[2]))
		case analysis.KindLocal, analysis.KindGlobal:
			tr.emit("%v %s %d %v", l, spec.Op, e.Aux, val(spec.Types[1], e.Vals[0]))
		case analysis.KindLoad:
			m := analysis.MemArg{Addr: uint32(e.Vals[0]), Offset: e.Aux}
			tr.emit("%v %s @%d -> %v", l, spec.Op, m.EffAddr(), val(spec.Types[2], e.Vals[1]))
		case analysis.KindStore:
			m := analysis.MemArg{Addr: uint32(e.Vals[0]), Offset: e.Aux}
			tr.emit("%v %s @%d <- %v", l, spec.Op, m.EffAddr(), val(spec.Types[2], e.Vals[1]))
		case analysis.KindMemorySize:
			tr.emit("%v memory.size %d", l, e.Aux)
		case analysis.KindMemoryGrow:
			tr.emit("%v memory.grow %d %d", l, e.Aux, uint32(e.Vals[0]))
		case analysis.KindCall:
			if spec.Post {
				var vs []analysis.Value
				vs, i = tr.tbl.AppendValues(tr.scratch[:0], batch, i)
				tr.scratch = vs[:0]
				tr.emit("%v call_post %v", l, vs)
				continue
			}
			var vs []analysis.Value
			vs, i = tr.tbl.AppendValues(tr.scratch[:0], batch, i)
			tr.scratch = vs[:0]
			tr.emit("%v call_pre f%d args=%v tbl=%d", l, int(int32(e.Aux)), vs, int64(e.Vals[0]))
			continue
		case analysis.KindReturn:
			var vs []analysis.Value
			vs, i = tr.tbl.AppendValues(tr.scratch[:0], batch, i)
			tr.scratch = vs[:0]
			tr.emit("%v return %v", l, vs)
			continue
		case analysis.KindStart:
			tr.emit("%v start", l)
		case analysis.KindBlockProbe:
			tr.emit("%v block_probe %v", l, analysis.Location{Func: l.Func, Instr: int(int32(e.Aux))})
		}
		i++
	}
}

// val boxes a raw record slot into a typed Value.
func val(t wasm.ValType, bits uint64) analysis.Value { return analysis.Value{Type: t, Bits: bits} }

// Report prints the trace.
func (tr *StreamTracer) Report(w io.Writer) {
	for _, e := range tr.Lines {
		fmt.Fprintln(w, e)
	}
}
