package wat

import (
	"fmt"
	"strconv"
	"strings"

	"wasabi/internal/wasm"
)

// Parse reads a module in the WebAssembly text format (the linear-
// instruction subset commonly emitted by wat2wasm round-trips): named
// functions, params/results/locals, block/loop/if…end control flow with
// numeric labels or no labels, imports, memory, table, globals, elem, data,
// export, and start. Folded instruction expressions are supported only for
// the constant initializers of globals, elem, and data.
func Parse(src string) (*wasm.Module, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, fmt.Errorf("wat: %w", err)
	}
	p := &parser{toks: toks}
	m, err := p.module()
	if err != nil {
		return nil, fmt.Errorf("wat: %w", err)
	}
	return m, nil
}

// --- lexer ---

type token struct {
	kind byte // '(' ')' 'a'tom 's'tring
	text string
	pos  int
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ';' && i+1 < len(src) && src[i+1] == ';': // line comment
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(' && i+1 < len(src) && src[i+1] == ';': // block comment
			depth := 1
			i += 2
			for i+1 < len(src) && depth > 0 {
				if src[i] == ';' && src[i+1] == ')' {
					depth--
					i += 2
				} else if src[i] == '(' && src[i+1] == ';' {
					depth++
					i += 2
				} else {
					i++
				}
			}
		case c == '(' || c == ')':
			toks = append(toks, token{kind: c, text: string(c), pos: i})
			i++
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					j++
					switch src[j] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case '\\', '"':
						sb.WriteByte(src[j])
					default:
						// Two-digit hex escape.
						if j+1 < len(src) {
							if v, err := strconv.ParseUint(src[j:j+2], 16, 8); err == nil {
								sb.WriteByte(byte(v))
								j++
							}
						}
					}
					j++
				} else {
					sb.WriteByte(src[j])
					j++
				}
			}
			toks = append(toks, token{kind: 's', text: sb.String(), pos: i})
			i = j + 1
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t\n\r()\";", rune(src[j])) {
				j++
			}
			if j == i { // a ';' that starts neither ";;" nor "(;"
				return nil, fmt.Errorf("unexpected ';' at offset %d", i)
			}
			toks = append(toks, token{kind: 'a', text: src[i:j], pos: i})
			i = j
		}
	}
	return toks, nil
}

// --- parser ---

type parser struct {
	toks []token
	pos  int

	funcNames   map[string]uint32
	globalNames map[string]uint32
	typeOf      map[uint32]wasm.FuncType // declared func signatures by index

	// fixups run after all declarations so references (start, elem,
	// export) may point forward to later functions.
	fixups []func() error
}

func (p *parser) peek() (token, bool) {
	if p.pos >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) next() (token, error) {
	t, ok := p.peek()
	if !ok {
		return token{}, fmt.Errorf("unexpected end of input")
	}
	p.pos++
	return t, nil
}

func (p *parser) expect(kind byte) (token, error) {
	t, err := p.next()
	if err != nil {
		return t, err
	}
	if t.kind != kind {
		return t, fmt.Errorf("expected %q, got %q at offset %d", string(kind), t.text, t.pos)
	}
	return t, nil
}

func (p *parser) atom() (string, error) {
	t, err := p.expect('a')
	return t.text, err
}

// pendingFunc is a function whose body is parsed after all declarations so
// forward references to function names resolve.
type pendingFunc struct {
	defined int
	params  map[string]uint32 // named params/locals
	body    []token
}

func (p *parser) module() (*wasm.Module, error) {
	p.funcNames = make(map[string]uint32)
	p.globalNames = make(map[string]uint32)
	p.typeOf = make(map[uint32]wasm.FuncType)
	m := &wasm.Module{}

	if _, err := p.expect('('); err != nil {
		return nil, err
	}
	if kw, err := p.atom(); err != nil || kw != "module" {
		return nil, fmt.Errorf("expected (module ...)")
	}

	var pendings []pendingFunc
	for {
		t, ok := p.peek()
		if !ok {
			return nil, fmt.Errorf("unterminated module")
		}
		if t.kind == ')' {
			p.pos++
			break
		}
		if _, err := p.expect('('); err != nil {
			return nil, err
		}
		kw, err := p.atom()
		if err != nil {
			return nil, err
		}
		switch kw {
		case "func":
			pending, err := p.funcDecl(m)
			if err != nil {
				return nil, err
			}
			pendings = append(pendings, pending)
		case "import":
			if err := p.importDecl(m); err != nil {
				return nil, err
			}
		case "memory":
			lim, err := p.limits()
			if err != nil {
				return nil, err
			}
			m.Memories = append(m.Memories, lim)
			if err := p.closeParen(); err != nil {
				return nil, err
			}
		case "table":
			lim, err := p.limits()
			if err != nil {
				return nil, err
			}
			// Optional "funcref".
			if t, ok := p.peek(); ok && t.kind == 'a' && t.text == "funcref" {
				p.pos++
			}
			m.Tables = append(m.Tables, lim)
			if err := p.closeParen(); err != nil {
				return nil, err
			}
		case "global":
			if err := p.globalDecl(m); err != nil {
				return nil, err
			}
		case "export":
			if err := p.exportDecl(m); err != nil {
				return nil, err
			}
		case "elem":
			if err := p.elemDecl(m); err != nil {
				return nil, err
			}
		case "data":
			if err := p.dataDecl(m); err != nil {
				return nil, err
			}
		case "start":
			t, err := p.next()
			if err != nil {
				return nil, err
			}
			p.fixups = append(p.fixups, func() error {
				idx, err := p.resolve(t.text, p.funcNames)
				if err != nil {
					return err
				}
				m.Start = &idx
				return nil
			})
			if err := p.closeParen(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("unsupported module field %q", kw)
		}
	}

	// Resolve forward references, then assemble bodies with all names known.
	for _, fix := range p.fixups {
		if err := fix(); err != nil {
			return nil, err
		}
	}
	for _, pending := range pendings {
		body, locals, brTargets, err := p.assembleBody(m, pending)
		if err != nil {
			return nil, err
		}
		m.Funcs[pending.defined].Locals = locals
		m.Funcs[pending.defined].Body = body
		m.Funcs[pending.defined].BrTargets = brTargets
	}
	return m, nil
}

func (p *parser) closeParen() error {
	_, err := p.expect(')')
	return err
}

func valType(s string) (wasm.ValType, bool) {
	switch s {
	case "i32":
		return wasm.I32, true
	case "i64":
		return wasm.I64, true
	case "f32":
		return wasm.F32, true
	case "f64":
		return wasm.F64, true
	}
	return 0, false
}

// sig parses (param ...)* (result ...)? groups, also collecting named
// parameters into names (if non-nil).
func (p *parser) sig(names map[string]uint32) (wasm.FuncType, error) {
	var ft wasm.FuncType
	for {
		t, ok := p.peek()
		if !ok || t.kind != '(' {
			return ft, nil
		}
		save := p.pos
		p.pos++
		kw, err := p.atom()
		if err != nil {
			return ft, err
		}
		switch kw {
		case "param":
			for {
				t, ok := p.peek()
				if !ok {
					return ft, fmt.Errorf("unterminated param")
				}
				if t.kind == ')' {
					p.pos++
					break
				}
				name := ""
				if strings.HasPrefix(t.text, "$") {
					name = t.text
					p.pos++
					t, _ = p.peek()
				}
				vt, okT := valType(t.text)
				if !okT {
					return ft, fmt.Errorf("bad param type %q", t.text)
				}
				p.pos++
				if name != "" && names != nil {
					names[name] = uint32(len(ft.Params))
				}
				ft.Params = append(ft.Params, vt)
			}
		case "result":
			for {
				t, ok := p.peek()
				if !ok {
					return ft, fmt.Errorf("unterminated result")
				}
				if t.kind == ')' {
					p.pos++
					break
				}
				vt, okT := valType(t.text)
				if !okT {
					return ft, fmt.Errorf("bad result type %q", t.text)
				}
				p.pos++
				ft.Results = append(ft.Results, vt)
			}
		default:
			p.pos = save
			return ft, nil
		}
	}
}

func (p *parser) funcDecl(m *wasm.Module) (pendingFunc, error) {
	pending := pendingFunc{params: make(map[string]uint32)}
	idx := uint32(m.NumFuncs())

	// Optional $name.
	if t, ok := p.peek(); ok && t.kind == 'a' && strings.HasPrefix(t.text, "$") {
		p.funcNames[t.text] = idx
		if m.FuncNames == nil {
			m.FuncNames = make(map[uint32]string)
		}
		m.FuncNames[idx] = strings.TrimPrefix(t.text, "$")
		p.pos++
	}
	// Optional inline (export "name").
	for {
		t, ok := p.peek()
		if !ok || t.kind != '(' {
			break
		}
		save := p.pos
		p.pos++
		kw, _ := p.atom()
		if kw != "export" {
			p.pos = save
			break
		}
		name, err := p.expect('s')
		if err != nil {
			return pending, err
		}
		m.Exports = append(m.Exports, wasm.Export{Name: name.text, Kind: wasm.ExternFunc, Idx: idx})
		if err := p.closeParen(); err != nil {
			return pending, err
		}
	}
	ft, err := p.sig(pending.params)
	if err != nil {
		return pending, err
	}
	p.typeOf[idx] = ft
	m.Funcs = append(m.Funcs, wasm.Func{TypeIdx: m.AddType(ft)})
	pending.defined = len(m.Funcs) - 1

	// Collect the raw body tokens up to the matching ')'.
	depth := 0
	for {
		t, err := p.next()
		if err != nil {
			return pending, err
		}
		if t.kind == '(' {
			depth++
		}
		if t.kind == ')' {
			if depth == 0 {
				break
			}
			depth--
		}
		pending.body = append(pending.body, t)
	}
	return pending, nil
}

func (p *parser) importDecl(m *wasm.Module) error {
	mod, err := p.expect('s')
	if err != nil {
		return err
	}
	name, err := p.expect('s')
	if err != nil {
		return err
	}
	if _, err := p.expect('('); err != nil {
		return err
	}
	kw, err := p.atom()
	if err != nil {
		return err
	}
	imp := wasm.Import{Module: mod.text, Name: name.text}
	switch kw {
	case "func":
		imp.Kind = wasm.ExternFunc
		idx := uint32(m.NumImportedFuncs())
		if len(m.Funcs) > 0 {
			return fmt.Errorf("imports must precede defined functions")
		}
		if t, ok := p.peek(); ok && strings.HasPrefix(t.text, "$") {
			p.funcNames[t.text] = idx
			p.pos++
		}
		ft, err := p.sig(nil)
		if err != nil {
			return err
		}
		p.typeOf[idx] = ft
		imp.TypeIdx = m.AddType(ft)
	case "memory":
		imp.Kind = wasm.ExternMemory
		lim, err := p.limits()
		if err != nil {
			return err
		}
		imp.Mem = lim
	case "table":
		imp.Kind = wasm.ExternTable
		lim, err := p.limits()
		if err != nil {
			return err
		}
		if t, ok := p.peek(); ok && t.text == "funcref" {
			p.pos++
		}
		imp.Table = lim
	case "global":
		imp.Kind = wasm.ExternGlobal
		gt, err := p.globalType()
		if err != nil {
			return err
		}
		imp.Global = gt
	default:
		return fmt.Errorf("unsupported import kind %q", kw)
	}
	m.Imports = append(m.Imports, imp)
	if err := p.closeParen(); err != nil {
		return err
	}
	return p.closeParen()
}

func (p *parser) limits() (wasm.Limits, error) {
	var l wasm.Limits
	s, err := p.atom()
	if err != nil {
		return l, err
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return l, fmt.Errorf("bad limit %q", s)
	}
	l.Min = uint32(v)
	if t, ok := p.peek(); ok && t.kind == 'a' {
		if v, err := strconv.ParseUint(t.text, 10, 32); err == nil {
			l.HasMax = true
			l.Max = uint32(v)
			p.pos++
		}
	}
	return l, nil
}

func (p *parser) globalType() (wasm.GlobalType, error) {
	t, err := p.next()
	if err != nil {
		return wasm.GlobalType{}, err
	}
	if t.kind == '(' {
		kw, err := p.atom()
		if err != nil || kw != "mut" {
			return wasm.GlobalType{}, fmt.Errorf("expected (mut t)")
		}
		ts, err := p.atom()
		if err != nil {
			return wasm.GlobalType{}, err
		}
		vt, ok := valType(ts)
		if !ok {
			return wasm.GlobalType{}, fmt.Errorf("bad global type %q", ts)
		}
		if err := p.closeParen(); err != nil {
			return wasm.GlobalType{}, err
		}
		return wasm.GlobalType{Type: vt, Mutable: true}, nil
	}
	vt, ok := valType(t.text)
	if !ok {
		return wasm.GlobalType{}, fmt.Errorf("bad global type %q", t.text)
	}
	return wasm.GlobalType{Type: vt}, nil
}

// constExpr parses a folded single-instruction initializer: (i32.const N)
// or (global.get $g).
func (p *parser) constExpr() ([]wasm.Instr, error) {
	if _, err := p.expect('('); err != nil {
		return nil, err
	}
	op, err := p.atom()
	if err != nil {
		return nil, err
	}
	arg, err := p.next()
	if err != nil {
		return nil, err
	}
	var in wasm.Instr
	switch op {
	case "i32.const":
		v, err := strconv.ParseInt(arg.text, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad i32.const %q", arg.text)
		}
		in = wasm.I32Const(int32(v))
	case "i64.const":
		v, err := strconv.ParseInt(arg.text, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad i64.const %q", arg.text)
		}
		in = wasm.I64ConstInstr(v)
	case "f32.const":
		v, err := strconv.ParseFloat(arg.text, 32)
		if err != nil {
			return nil, fmt.Errorf("bad f32.const %q", arg.text)
		}
		in = wasm.F32ConstInstr(float32(v))
	case "f64.const":
		v, err := strconv.ParseFloat(arg.text, 64)
		if err != nil {
			return nil, fmt.Errorf("bad f64.const %q", arg.text)
		}
		in = wasm.F64ConstInstr(v)
	case "global.get":
		idx, err := p.resolve(arg.text, p.globalNames)
		if err != nil {
			return nil, err
		}
		in = wasm.GlobalGet(idx)
	default:
		return nil, fmt.Errorf("unsupported constant instruction %q", op)
	}
	if err := p.closeParen(); err != nil {
		return nil, err
	}
	return []wasm.Instr{in, wasm.End()}, nil
}

func (p *parser) globalDecl(m *wasm.Module) error {
	idx := uint32(m.NumImportedGlobals() + len(m.Globals))
	if t, ok := p.peek(); ok && strings.HasPrefix(t.text, "$") {
		p.globalNames[t.text] = idx
		p.pos++
	}
	gt, err := p.globalType()
	if err != nil {
		return err
	}
	init, err := p.constExpr()
	if err != nil {
		return err
	}
	m.Globals = append(m.Globals, wasm.Global{Type: gt, Init: init})
	return p.closeParen()
}

func (p *parser) exportDecl(m *wasm.Module) error {
	name, err := p.expect('s')
	if err != nil {
		return err
	}
	if _, err := p.expect('('); err != nil {
		return err
	}
	kw, err := p.atom()
	if err != nil {
		return err
	}
	ref, err := p.next()
	if err != nil {
		return err
	}
	e := wasm.Export{Name: name.text}
	switch kw {
	case "func":
		e.Kind = wasm.ExternFunc
	case "memory":
		e.Kind = wasm.ExternMemory
	case "table":
		e.Kind = wasm.ExternTable
	case "global":
		e.Kind = wasm.ExternGlobal
	default:
		return fmt.Errorf("unsupported export kind %q", kw)
	}
	m.Exports = append(m.Exports, e)
	expIdx := len(m.Exports) - 1
	kind := e.Kind
	p.fixups = append(p.fixups, func() error {
		names := p.funcNames
		if kind == wasm.ExternGlobal {
			names = p.globalNames
		}
		if kind == wasm.ExternFunc || kind == wasm.ExternGlobal {
			idx, err := p.resolve(ref.text, names)
			if err != nil {
				return err
			}
			m.Exports[expIdx].Idx = idx
		}
		return nil
	})
	if err := p.closeParen(); err != nil {
		return err
	}
	return p.closeParen()
}

func (p *parser) elemDecl(m *wasm.Module) error {
	offset, err := p.constExpr()
	if err != nil {
		return err
	}
	seg := wasm.ElemSegment{Offset: offset}
	var refs []string
	for {
		t, ok := p.peek()
		if !ok {
			return fmt.Errorf("unterminated elem")
		}
		if t.kind == ')' {
			p.pos++
			break
		}
		tok, err := p.next()
		if err != nil {
			return err
		}
		refs = append(refs, tok.text)
	}
	m.Elems = append(m.Elems, seg)
	segIdx := len(m.Elems) - 1
	p.fixups = append(p.fixups, func() error {
		for _, ref := range refs {
			idx, err := p.resolve(ref, p.funcNames)
			if err != nil {
				return err
			}
			m.Elems[segIdx].Funcs = append(m.Elems[segIdx].Funcs, idx)
		}
		return nil
	})
	return nil
}

func (p *parser) dataDecl(m *wasm.Module) error {
	offset, err := p.constExpr()
	if err != nil {
		return err
	}
	var data []byte
	for {
		t, ok := p.peek()
		if !ok {
			return fmt.Errorf("unterminated data")
		}
		if t.kind == ')' {
			p.pos++
			break
		}
		s, err := p.expect('s')
		if err != nil {
			return err
		}
		data = append(data, s.text...)
	}
	m.Datas = append(m.Datas, wasm.DataSegment{Offset: offset, Data: data})
	return nil
}

// resolve turns $name or a numeric index into an index.
func (p *parser) resolve(s string, names map[string]uint32) (uint32, error) {
	if strings.HasPrefix(s, "$") {
		idx, ok := names[s]
		if !ok {
			return 0, fmt.Errorf("unknown name %q", s)
		}
		return idx, nil
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad index %q", s)
	}
	return uint32(v), nil
}
