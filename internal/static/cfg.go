// Package static is the module-level static-analysis layer: control-flow
// graphs over decoded function bodies, reachability and dominators, a static
// call graph, and per-block dataflow (operand-stack heights, local
// liveness). Its consumers are analysis-aware instrumentation (hook elision
// via core.Plan), exact compile-time operand-stack sizing (asserted against
// the interpreter's own height tracking), and the `wasabi -inspect` report.
// Everything here works on ORIGINAL instruction indices of uninstrumented
// bodies; malformed bodies surface as errors, never panics.
package static

import (
	"fmt"

	"wasabi/internal/core"
	"wasabi/internal/wasm"
)

// Block is one basic block of a function body: a maximal straight-line run
// of instructions [Start, End] (closed range of original instruction
// indices) entered only at Start and left only after End.
type Block struct {
	Start int
	End   int
	Succs []int // successor block ids, deduplicated, in discovery order
	Preds []int
	Exits bool // has an edge to the function exit (return, final end, br to the function label)
}

// Span returns the block as the instrumentation-plan span type.
func (b *Block) Span() core.BlockSpan { return core.BlockSpan{Start: b.Start, End: b.End} }

// CFG is the control-flow graph of one function body. Block 0 is the entry
// block; Reachable marks blocks reachable from it; Idom holds immediate
// dominators (Idom[0] = 0; -1 for unreachable blocks).
type CFG struct {
	Blocks    []Block
	Reachable []bool
	Idom      []int

	// blockAt maps an original instruction index to the id of the block
	// containing it (internal; kept for dataflow and probe planning).
	blockAt []int
}

// NumReachable counts the blocks reachable from the entry.
func (g *CFG) NumReachable() int {
	n := 0
	for _, r := range g.Reachable {
		if r {
			n++
		}
	}
	return n
}

// ctrl kinds of the frame stack used while resolving branches.
type frameKind uint8

const (
	frFunc frameKind = iota
	frBlock
	frLoop
	frIf
	frElse
)

type frame struct {
	kind  frameKind
	begin int // opener instruction index; -1 for the function frame
	end   int // matching end instruction index
}

// matches computes, for every block/loop/if/else instruction, the index of
// its matching end (and for ifs the else). It mirrors the instrumenter's
// control-match pass but reports positions in its errors so negative-corpus
// inputs fail with context.
func matches(body []wasm.Instr) (matchEnd, matchElse []int32, err error) {
	matchEnd = make([]int32, len(body))
	matchElse = make([]int32, len(body))
	for i := range body {
		matchEnd[i], matchElse[i] = -1, -1
	}
	type opener struct{ pc, elsePC int }
	var stack []opener
	sawFuncEnd := false
	for pc, in := range body {
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			stack = append(stack, opener{pc: pc, elsePC: -1})
		case wasm.OpElse:
			if len(stack) == 0 || body[stack[len(stack)-1].pc].Op != wasm.OpIf ||
				stack[len(stack)-1].elsePC >= 0 {
				return nil, nil, fmt.Errorf("static: else without open if at instr %d", pc)
			}
			top := &stack[len(stack)-1]
			top.elsePC = pc
			matchElse[top.pc] = int32(pc)
		case wasm.OpEnd:
			if len(stack) == 0 {
				if pc != len(body)-1 {
					return nil, nil, fmt.Errorf("static: function-level end at instr %d is not final", pc)
				}
				sawFuncEnd = true
				continue
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			matchEnd[top.pc] = int32(pc)
			if top.elsePC >= 0 {
				matchEnd[top.elsePC] = int32(pc)
			}
		}
	}
	if len(stack) != 0 {
		return nil, nil, fmt.Errorf("static: %d unclosed blocks at end of body", len(stack))
	}
	if !sawFuncEnd {
		return nil, nil, fmt.Errorf("static: missing function-level end")
	}
	return matchEnd, matchElse, nil
}

// endsBlock reports whether the instruction at an index terminates a basic
// block, i.e. the next instruction (if any) starts a new one. Frame
// boundaries (loop/if/else/end) and transfers (br*/return/unreachable) do;
// plain `block` openers do not — their body is entered by fallthrough only.
func endsBlock(op wasm.Opcode) bool {
	switch op {
	case wasm.OpLoop, wasm.OpIf, wasm.OpElse, wasm.OpEnd,
		wasm.OpBr, wasm.OpBrIf, wasm.OpBrTable, wasm.OpReturn, wasm.OpUnreachable:
		return true
	}
	return false
}

// FuncCFG builds the control-flow graph of one decoded function body.
// Malformed bodies (unbalanced control, out-of-range labels, bad br_table
// spans, empty bodies) return an error.
func FuncCFG(f *wasm.Func) (*CFG, error) {
	body := f.Body
	if len(body) == 0 {
		return nil, fmt.Errorf("static: empty function body")
	}
	matchEnd, matchElse, err := matches(body)
	if err != nil {
		return nil, err
	}

	// Leaders: instruction 0, and every instruction following a
	// block-terminating one. Blocks are the maximal leader-to-leader runs.
	leader := make([]bool, len(body))
	leader[0] = true
	for i := 0; i < len(body)-1; i++ {
		if endsBlock(body[i].Op) {
			leader[i+1] = true
		}
	}
	g := &CFG{blockAt: make([]int, len(body))}
	for i := range body {
		if leader[i] {
			g.Blocks = append(g.Blocks, Block{Start: i, End: i})
		}
		b := len(g.Blocks) - 1
		g.Blocks[b].End = i
		g.blockAt[i] = b
	}

	// Edge pass: scan linearly, maintaining the frame stack so branch labels
	// resolve exactly like the instrumenter's resolveTarget — loops branch
	// back to begin+1, the function label means return, everything else
	// lands after the frame's matching end.
	ctrl := []frame{{kind: frFunc, begin: -1, end: len(body) - 1}}
	addEdge := func(from int, to int) {
		b := &g.Blocks[from]
		for _, s := range b.Succs {
			if s == to {
				return
			}
		}
		b.Succs = append(b.Succs, to)
	}
	// resolve appends the edge for a branch with the given relative label.
	resolve := func(from int, label uint32) error {
		if int(label) >= len(ctrl) {
			return fmt.Errorf("branch label %d exceeds control depth %d", label, len(ctrl))
		}
		fr := ctrl[len(ctrl)-1-int(label)]
		switch fr.kind {
		case frLoop:
			if fr.begin+1 >= len(body) {
				return fmt.Errorf("loop at %d has no body", fr.begin)
			}
			addEdge(from, g.blockAt[fr.begin+1])
		case frFunc:
			g.Blocks[from].Exits = true
		default:
			if fr.end+1 >= len(body) {
				return fmt.Errorf("frame end %d has no continuation", fr.end)
			}
			addEdge(from, g.blockAt[fr.end+1])
		}
		return nil
	}

	for i, in := range body {
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop:
			kind := frBlock
			if in.Op == wasm.OpLoop {
				kind = frLoop
			}
			ctrl = append(ctrl, frame{kind: kind, begin: i, end: int(matchEnd[i])})
		case wasm.OpIf:
			ctrl = append(ctrl, frame{kind: frIf, begin: i, end: int(matchEnd[i])})
		case wasm.OpElse:
			top := &ctrl[len(ctrl)-1]
			if top.kind != frIf {
				return nil, fmt.Errorf("static: instr %d: else without if", i)
			}
			top.kind = frElse
			top.begin = i
		case wasm.OpEnd:
			if len(ctrl) == 0 {
				return nil, fmt.Errorf("static: instr %d: end without open frame", i)
			}
			ctrl = ctrl[:len(ctrl)-1]
		}

		if !endsBlock(in.Op) && i != len(body)-1 {
			continue // mid-block instruction
		}
		b := g.blockAt[i]
		switch op := in.Op; op {
		case wasm.OpLoop:
			addEdge(b, g.blockAt[i+1]) // fallthrough into the loop body
		case wasm.OpIf:
			// True edge: the then arm. False edge: the else arm when present,
			// otherwise past the matching end.
			addEdge(b, g.blockAt[i+1])
			if matchEnd[i] < 0 {
				return nil, fmt.Errorf("static: instr %d: if without matching end", i)
			}
			if elsePC := matchElse[i]; elsePC >= 0 {
				addEdge(b, g.blockAt[elsePC+1])
			} else {
				if int(matchEnd[i])+1 >= len(body) {
					return nil, fmt.Errorf("static: instr %d: if end has no continuation", i)
				}
				addEdge(b, g.blockAt[matchEnd[i]+1])
			}
		case wasm.OpElse:
			// Reached by then-arm fallthrough: jump past the if's end.
			if matchEnd[i] < 0 || int(matchEnd[i])+1 >= len(body) {
				return nil, fmt.Errorf("static: instr %d: else has no continuation", i)
			}
			addEdge(b, g.blockAt[matchEnd[i]+1])
		case wasm.OpEnd:
			if i == len(body)-1 {
				g.Blocks[b].Exits = true // implicit return
			} else {
				addEdge(b, g.blockAt[i+1])
			}
		case wasm.OpBr:
			if err := resolve(b, in.Idx); err != nil {
				return nil, fmt.Errorf("static: instr %d: %w", i, err)
			}
		case wasm.OpBrIf:
			if err := resolve(b, in.Idx); err != nil {
				return nil, fmt.Errorf("static: instr %d: %w", i, err)
			}
			if i+1 >= len(body) {
				return nil, fmt.Errorf("static: instr %d: br_if has no fallthrough", i)
			}
			addEdge(b, g.blockAt[i+1])
		case wasm.OpBrTable:
			off, cnt := in.BrTableSpan()
			if off+cnt > len(f.BrTargets) {
				return nil, fmt.Errorf("static: instr %d: br_table target span [%d:%d] exceeds pool (%d)", i, off, off+cnt, len(f.BrTargets))
			}
			for _, label := range in.BrTargets(f.BrTargets) {
				if err := resolve(b, label); err != nil {
					return nil, fmt.Errorf("static: instr %d: %w", i, err)
				}
			}
			if err := resolve(b, in.Idx); err != nil { // default target
				return nil, fmt.Errorf("static: instr %d: %w", i, err)
			}
		case wasm.OpReturn:
			g.Blocks[b].Exits = true
		case wasm.OpUnreachable:
			// Traps: no successors.
		default:
			// Only the final instruction can end a block without being a
			// terminator — and matches() already required it to be an end.
			return nil, fmt.Errorf("static: instr %d: body ends in %s, not end", i, op)
		}
	}
	if len(ctrl) != 0 {
		return nil, fmt.Errorf("static: %d unclosed frames", len(ctrl))
	}

	for b := range g.Blocks {
		for _, s := range g.Blocks[b].Succs {
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, b)
		}
	}
	g.Reachable = reachableBlocks(g)
	g.Idom = dominators(g)
	return g, nil
}

// reachableBlocks marks blocks reachable from the entry block.
func reachableBlocks(g *CFG) []bool {
	seen := make([]bool, len(g.Blocks))
	work := []int{0}
	seen[0] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}
