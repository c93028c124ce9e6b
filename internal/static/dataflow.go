package static

import (
	"fmt"

	"wasabi/internal/wasm"
)

// BitSet is a dense bitset over local indices.
type BitSet []uint64

func newBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Has reports whether bit i is set.
func (s BitSet) Has(i int) bool { return i/64 < len(s) && s[i/64]&(1<<(i%64)) != 0 }

// Set sets bit i.
func (s BitSet) Set(i int) { s[i/64] |= 1 << (i % 64) }

// orAndNot sets s |= a &^ b, reporting whether s changed.
func (s BitSet) orAndNot(a, b BitSet) bool {
	changed := false
	for w := range s {
		v := s[w] | (a[w] &^ b[w])
		if v != s[w] {
			s[w] = v
			changed = true
		}
	}
	return changed
}

// or sets s |= a, reporting whether s changed.
func (s BitSet) or(a BitSet) bool {
	changed := false
	for w := range s {
		if v := s[w] | a[w]; v != s[w] {
			s[w] = v
			changed = true
		}
	}
	return changed
}

// Count returns the number of set bits.
func (s BitSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// FuncFacts are the per-function dataflow results: the operand-stack
// high-water mark (computed with exactly the interpreter compiler's height
// algorithm, so the two agree instruction for instruction), per-block entry
// heights and high-waters, and local liveness.
type FuncFacts struct {
	// MaxStack is the operand-stack high-water mark of the body — the exact
	// value interp's compile pass derives, including its dead-code skipping.
	MaxStack int

	// Entry[b] is the operand-stack height when block b is entered; -1 for
	// blocks whose leader is statically dead. High[b] is the maximum height
	// reached inside block b (-1 for dead blocks).
	Entry []int
	High  []int

	// Local liveness per block: Gen (read before written), Kill (written),
	// and the fixpoint LiveIn/LiveOut sets. Bit i is local i (params first).
	Gen, Kill, LiveIn, LiveOut []BitSet

	NumLocals int
}

// dfFrame mirrors the interpreter compiler's control frame: the operand
// height at entry and the result arity, plus whether it is a loop (branches
// to a loop carry no values) or the function frame.
type dfFrame struct {
	op     wasm.Opcode // OpBlock/OpLoop/OpIf/OpElse; OpCall marks the function frame
	height int
	arity  int
}

func (fr *dfFrame) branchArity() int {
	if fr.op == wasm.OpLoop {
		return 0
	}
	return fr.arity
}

// stackSim replays the interpreter compiler's abstract stack-height
// interpretation (interp/compile.go) over a body: same pushes and pops per
// opcode, same dead-code regions (nothing after br/return/unreachable until
// the enclosing frame closes), same frame-height resets at else/end. This
// is deliberately NOT the validator's algorithm — the validator keeps
// simulating pushes inside unreachable code, so its high-water can exceed
// the stack the compiled function actually needs.
type stackSim struct {
	ix       *wasm.IndexSpace
	nLocals  int
	ctrl     []dfFrame
	height   int
	maxStack int
	dead     bool
	deadSkip int
}

func (c *stackSim) push(n int) {
	c.height += n
	if c.height > c.maxStack {
		c.maxStack = c.height
	}
}

func (c *stackSim) popN(n int) error {
	if c.height-n < c.ctrl[len(c.ctrl)-1].height {
		return fmt.Errorf("operand stack underflow")
	}
	c.height -= n
	return nil
}

func (c *stackSim) markDead() {
	c.dead = true
	c.height = c.ctrl[len(c.ctrl)-1].height
}

func (c *stackSim) beginElse() error {
	fr := &c.ctrl[len(c.ctrl)-1]
	if fr.op != wasm.OpIf {
		return fmt.Errorf("else without matching if")
	}
	if !c.dead && c.height != fr.height+fr.arity {
		return fmt.Errorf("stack height %d at else, want %d", c.height, fr.height+fr.arity)
	}
	fr.op = wasm.OpElse
	c.height = fr.height
	c.dead = false
	c.deadSkip = 0
	return nil
}

func (c *stackSim) endFrame() error {
	fr := &c.ctrl[len(c.ctrl)-1]
	if !c.dead && c.height != fr.height+fr.arity {
		return fmt.Errorf("stack height %d at end, want %d", c.height, fr.height+fr.arity)
	}
	c.height = fr.height + fr.arity
	c.dead = false
	c.deadSkip = 0
	c.ctrl = c.ctrl[:len(c.ctrl)-1]
	return nil
}

// branchTo checks a branch with relative label n, exactly like the
// compiler's compileBr/compileBrTable entry checks. It never changes the
// height — branches only constrain it.
func (c *stackSim) branchTo(n int) error {
	if n >= len(c.ctrl) {
		return fmt.Errorf("branch label %d exceeds control depth %d", n, len(c.ctrl))
	}
	fr := &c.ctrl[len(c.ctrl)-1-n]
	arity := fr.branchArity()
	if arity > 1 {
		return fmt.Errorf("branch carrying %d values (MVP allows at most 1)", arity)
	}
	if c.height < fr.height+arity {
		return fmt.Errorf("branch carries %d values but stack height is %d (target height %d)", arity, c.height, fr.height)
	}
	return nil
}

func (c *stackSim) step(in wasm.Instr, f *wasm.Func) error {
	op := in.Op
	if len(c.ctrl) == 0 {
		return fmt.Errorf("instruction after function-level end")
	}

	if c.dead {
		switch op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			c.deadSkip++
		case wasm.OpElse:
			if c.deadSkip == 0 {
				return c.beginElse()
			}
		case wasm.OpEnd:
			if c.deadSkip > 0 {
				c.deadSkip--
				return nil
			}
			return c.endFrame()
		}
		return nil
	}

	switch op {
	case wasm.OpNop:
	case wasm.OpUnreachable:
		c.markDead()

	case wasm.OpBlock, wasm.OpLoop:
		c.ctrl = append(c.ctrl, dfFrame{op: op, height: c.height, arity: len(in.Block.Results())})
	case wasm.OpIf:
		if err := c.popN(1); err != nil {
			return fmt.Errorf("if condition: %w", err)
		}
		c.ctrl = append(c.ctrl, dfFrame{op: op, height: c.height, arity: len(in.Block.Results())})
	case wasm.OpElse:
		return c.beginElse()
	case wasm.OpEnd:
		return c.endFrame()

	case wasm.OpBr:
		if err := c.branchTo(int(in.Idx)); err != nil {
			return err
		}
		c.markDead()
	case wasm.OpBrIf:
		if err := c.popN(1); err != nil {
			return fmt.Errorf("br_if condition: %w", err)
		}
		if err := c.branchTo(int(in.Idx)); err != nil {
			return err
		}
	case wasm.OpBrTable:
		if err := c.popN(1); err != nil {
			return fmt.Errorf("br_table index: %w", err)
		}
		off, cnt := in.BrTableSpan()
		if off+cnt > len(f.BrTargets) {
			return fmt.Errorf("br_table target span [%d:%d] exceeds pool (%d)", off, off+cnt, len(f.BrTargets))
		}
		for _, t := range in.BrTargets(f.BrTargets) {
			if err := c.branchTo(int(t)); err != nil {
				return err
			}
		}
		if err := c.branchTo(int(in.Idx)); err != nil {
			return err
		}
		c.markDead()
	case wasm.OpReturn:
		if err := c.branchTo(len(c.ctrl) - 1); err != nil {
			return err
		}
		c.markDead()

	case wasm.OpCall:
		ft, err := c.ix.FuncType(in.Idx)
		if err != nil {
			return err
		}
		if err := c.popN(len(ft.Params)); err != nil {
			return fmt.Errorf("call %d: %w", in.Idx, err)
		}
		c.push(len(ft.Results))
	case wasm.OpCallIndirect:
		if int(in.Idx) >= len(c.ix.Types) {
			return fmt.Errorf("call_indirect type index %d out of range", in.Idx)
		}
		ft := c.ix.Types[in.Idx]
		if err := c.popN(1 + len(ft.Params)); err != nil {
			return fmt.Errorf("call_indirect: %w", err)
		}
		c.push(len(ft.Results))

	case wasm.OpDrop:
		if err := c.popN(1); err != nil {
			return fmt.Errorf("drop: %w", err)
		}
	case wasm.OpSelect:
		if err := c.popN(3); err != nil {
			return fmt.Errorf("select: %w", err)
		}
		c.push(1)

	case wasm.OpLocalGet:
		if err := c.checkLocal(in.Idx); err != nil {
			return err
		}
		c.push(1)
	case wasm.OpLocalSet:
		if err := c.checkLocal(in.Idx); err != nil {
			return err
		}
		if err := c.popN(1); err != nil {
			return fmt.Errorf("local.set: %w", err)
		}
	case wasm.OpLocalTee:
		if err := c.checkLocal(in.Idx); err != nil {
			return err
		}
		if err := c.popN(1); err != nil {
			return fmt.Errorf("local.tee: %w", err)
		}
		c.push(1)
	case wasm.OpGlobalGet:
		if _, err := c.ix.GlobalType(in.Idx); err != nil {
			return err
		}
		c.push(1)
	case wasm.OpGlobalSet:
		if _, err := c.ix.GlobalType(in.Idx); err != nil {
			return err
		}
		if err := c.popN(1); err != nil {
			return fmt.Errorf("global.set: %w", err)
		}

	case wasm.OpMemorySize:
		c.push(1)
	case wasm.OpMemoryGrow:
		if err := c.popN(1); err != nil {
			return fmt.Errorf("memory.grow: %w", err)
		}
		c.push(1)

	case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		c.push(1)

	case wasm.OpMiscPrefix:
		if _, _, ok := wasm.MiscTruncSatSig(in.Idx); ok {
			if err := c.popN(1); err != nil {
				return fmt.Errorf("%s: %w", wasm.MiscName(in.Idx), err)
			}
			c.push(1)
		} else {
			// memory.copy / memory.fill: three i32 operands, no result.
			if err := c.popN(3); err != nil {
				return fmt.Errorf("%s: %w", wasm.MiscName(in.Idx), err)
			}
		}

	default:
		switch {
		case op.IsLoad():
			if err := c.popN(1); err != nil {
				return fmt.Errorf("%s address: %w", op, err)
			}
			c.push(1)
		case op.IsStore():
			if err := c.popN(2); err != nil {
				return fmt.Errorf("%s: %w", op, err)
			}
		case op.IsUnary():
			if err := c.popN(1); err != nil {
				return fmt.Errorf("%s: %w", op, err)
			}
			c.push(1)
		case op.IsBinary():
			if err := c.popN(2); err != nil {
				return fmt.Errorf("%s: %w", op, err)
			}
			c.push(1)
		default:
			return fmt.Errorf("unsupported opcode %s", op)
		}
	}
	return nil
}

func (c *stackSim) checkLocal(idx uint32) error {
	if int(idx) >= c.nLocals {
		return fmt.Errorf("local index %d out of range (have %d)", idx, c.nLocals)
	}
	return nil
}

// FuncDataflow runs the stack-height simulation and local-liveness analysis
// over one function body, attributing per-block facts through the CFG. ix is
// the index space of the module f belongs to.
func FuncDataflow(ix *wasm.IndexSpace, sig wasm.FuncType, f *wasm.Func, g *CFG) (*FuncFacts, error) {
	nLocals := len(sig.Params) + len(f.Locals)
	nb := len(g.Blocks)
	ff := &FuncFacts{
		Entry:     make([]int, nb),
		High:      make([]int, nb),
		Gen:       make([]BitSet, nb),
		Kill:      make([]BitSet, nb),
		LiveIn:    make([]BitSet, nb),
		LiveOut:   make([]BitSet, nb),
		NumLocals: nLocals,
	}
	for b := 0; b < nb; b++ {
		ff.Entry[b], ff.High[b] = -1, -1
		ff.Gen[b] = newBitSet(nLocals)
		ff.Kill[b] = newBitSet(nLocals)
		ff.LiveIn[b] = newBitSet(nLocals)
		ff.LiveOut[b] = newBitSet(nLocals)
	}

	sim := &stackSim{ix: ix, nLocals: nLocals}
	sim.ctrl = append(sim.ctrl, dfFrame{op: wasm.OpCall, arity: len(sig.Results)})
	for pc, in := range f.Body {
		b := g.blockAt[pc]
		if g.Blocks[b].Start == pc && !sim.dead {
			ff.Entry[b] = sim.height
			ff.High[b] = sim.height
		}
		if !sim.dead {
			// Liveness gen/kill, over statically live code only.
			switch in.Op {
			case wasm.OpLocalGet:
				if int(in.Idx) < nLocals && !ff.Kill[b].Has(int(in.Idx)) {
					ff.Gen[b].Set(int(in.Idx))
				}
			case wasm.OpLocalSet, wasm.OpLocalTee:
				if int(in.Idx) < nLocals {
					ff.Kill[b].Set(int(in.Idx))
				}
			}
		}
		if err := sim.step(in, f); err != nil {
			return nil, fmt.Errorf("static: instr %d (%s): %w", pc, in.Op, err)
		}
		if !sim.dead && ff.High[b] >= 0 && sim.height > ff.High[b] {
			ff.High[b] = sim.height
		}
	}
	if len(sim.ctrl) != 0 {
		return nil, fmt.Errorf("static: %d unclosed blocks", len(sim.ctrl))
	}
	ff.MaxStack = sim.maxStack

	// Backward liveness fixpoint: LiveOut = ∪ LiveIn(succ);
	// LiveIn = Gen ∪ (LiveOut − Kill).
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			for _, s := range g.Blocks[b].Succs {
				if ff.LiveOut[b].or(ff.LiveIn[s]) {
					changed = true
				}
			}
			if ff.LiveIn[b].or(ff.Gen[b]) {
				changed = true
			}
			if ff.LiveIn[b].orAndNot(ff.LiveOut[b], ff.Kill[b]) {
				changed = true
			}
		}
	}
	return ff, nil
}
