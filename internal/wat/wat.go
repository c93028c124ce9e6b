// Package wat renders modules in a WebAssembly-text-like format for
// debugging, examples, and golden tests. It prints the folded linear form
// (one instruction per line with block indentation), not full s-expressions.
package wat

import (
	"fmt"
	"io"
	"strings"

	"wasabi/internal/wasm"
)

// Print writes a text rendering of the module to w.
func Print(w io.Writer, m *wasm.Module) error {
	p := &printer{w: w}
	p.printf("(module")
	p.indent++
	for i, ft := range m.Types {
		p.printf("(type %d %s)", i, ft)
	}
	for _, imp := range m.Imports {
		switch imp.Kind {
		case wasm.ExternFunc:
			p.printf("(import %q %q (func (type %d)))", imp.Module, imp.Name, imp.TypeIdx)
		case wasm.ExternMemory:
			p.printf("(import %q %q (memory %s))", imp.Module, imp.Name, limits(imp.Mem))
		case wasm.ExternTable:
			p.printf("(import %q %q (table %s funcref))", imp.Module, imp.Name, limits(imp.Table))
		case wasm.ExternGlobal:
			p.printf("(import %q %q (global %s))", imp.Module, imp.Name, imp.Global)
		}
	}
	for _, t := range m.Tables {
		p.printf("(table %s funcref)", limits(t))
	}
	for _, mem := range m.Memories {
		p.printf("(memory %s)", limits(mem))
	}
	numGlobalImports := m.NumImportedGlobals()
	for i, g := range m.Globals {
		p.printf("(global %d %s %s)", numGlobalImports+i, g.Type, exprString(g.Init))
	}
	names := m.FuncNameList()
	numImported := len(names) - len(m.Funcs)
	for i := range m.Funcs {
		p.printFunc(m, &m.Funcs[i], numImported+i, names[numImported+i])
	}
	for _, e := range m.Exports {
		p.printf("(export %q (%s %d))", e.Name, e.Kind, e.Idx)
	}
	if m.Start != nil {
		p.printf("(start %d)", *m.Start)
	}
	for _, e := range m.Elems {
		p.printf("(elem %s funcs=%v)", exprString(e.Offset), e.Funcs)
	}
	for _, d := range m.Datas {
		p.printf("(data %s len=%d)", exprString(d.Offset), len(d.Data))
	}
	p.indent--
	p.printf(")")
	return p.err
}

// ToString renders the module to a string.
func ToString(m *wasm.Module) string {
	var sb strings.Builder
	_ = Print(&sb, m)
	return sb.String()
}

type printer struct {
	w      io.Writer
	indent int
	err    error
}

func (p *printer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "%s%s\n", strings.Repeat("  ", p.indent), fmt.Sprintf(format, args...))
}

func (p *printer) printFunc(m *wasm.Module, f *wasm.Func, idx int, name string) {
	sig := ""
	if int(f.TypeIdx) < len(m.Types) {
		sig = " " + m.Types[f.TypeIdx].String()
	}
	p.printf("(func %d (; %s ;)%s", idx, name, sig)
	p.indent++
	if len(f.Locals) > 0 {
		parts := make([]string, len(f.Locals))
		for i, t := range f.Locals {
			parts[i] = t.String()
		}
		p.printf("(local %s)", strings.Join(parts, " "))
	}
	for _, in := range f.Body {
		switch in.Op {
		case wasm.OpEnd, wasm.OpElse:
			p.indent--
			p.printf("%s", in.StringWithPool(f.BrTargets))
			if in.Op == wasm.OpElse {
				p.indent++
			}
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			p.printf("%s", in.StringWithPool(f.BrTargets))
			p.indent++
		default:
			p.printf("%s", in.StringWithPool(f.BrTargets))
		}
	}
	// The function-level end already popped the indent added after "(func".
}

func limits(l wasm.Limits) string {
	if l.HasMax {
		return fmt.Sprintf("%d %d", l.Min, l.Max)
	}
	return fmt.Sprintf("%d", l.Min)
}

func exprString(expr []wasm.Instr) string {
	parts := make([]string, 0, len(expr))
	for _, in := range expr {
		if in.Op == wasm.OpEnd {
			continue
		}
		parts = append(parts, in.String())
	}
	return "(" + strings.Join(parts, "; ") + ")"
}
