package core

import (
	"errors"
	"fmt"

	"wasabi/internal/analysis"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
	"wasabi/internal/workpool"
)

// ErrHookNamespaceImport reports an input module that imports from the
// generated hook namespace (HookModule): instrumenting it would merge the
// program's imports with the generated hooks. The public layer wraps it into
// wasabi.ErrHookModuleCollision; matched with errors.Is.
var ErrHookNamespaceImport = errors.New("core: input module imports from the generated hook import namespace")

// Options configure an instrumentation run.
type Options struct {
	// Hooks selects which instruction classes to instrument (selective
	// instrumentation, paper §2.4.2). The zero value instruments nothing;
	// use analysis.AllHooks for full instrumentation or analysis.HooksOf to
	// derive the set from an analysis value.
	Hooks analysis.HookSet

	// Parallelism bounds the number of goroutines instrumenting function
	// bodies concurrently (paper §3). 0 means GOMAXPROCS; 1 disables
	// parallelism.
	Parallelism int

	// SkipValidation skips validating the input module first. The
	// instrumenter assumes a valid module; only skip for trusted inputs.
	SkipValidation bool

	// Plan optionally elides hooks using static-analysis results (computed
	// by internal/static): functions it marks unreachable are copied through
	// uninstrumented, and when Hooks selects analysis.KindBlockProbe one
	// probe per listed CFG block is emitted. nil disables elision.
	Plan *Plan
}

// Instrument rewrites m into an instrumented module that calls imported
// low-level hooks (module name HookModule) around the selected instruction
// classes. The input module is not modified. The returned Metadata carries
// everything the runtime dispatcher needs.
//
// Options carry only the mechanical instrumentation parameters; deriving a
// hook set from an analysis value is the analysis package's job
// (analysis.HooksOf / analysis.Cap.HookSet), wired up by the public wasabi
// layer.
func Instrument(m *wasm.Module, opts Options) (*wasm.Module, *Metadata, error) {
	if !opts.SkipValidation {
		if err := validate.Module(m); err != nil {
			return nil, nil, fmt.Errorf("core: input module invalid: %w", err)
		}
	}
	// The generated hook imports live under HookModule; a program that
	// already imports from that namespace would collide with them in the
	// instrumented output.
	for _, imp := range m.Imports {
		if imp.Module == HookModule {
			return nil, nil, fmt.Errorf("%w: input module imports %q.%q (namespace %q)", ErrHookNamespaceImport, imp.Module, imp.Name, HookModule)
		}
	}

	out := copyModule(m)
	ix := m.IndexSpace()
	numOldImports := ix.NumImportedFuncs
	hooks := newHookRegistry(uint32(ix.NumFuncs()))

	// Pre-pass: assign deterministic br_table metadata index ranges per
	// function so parallel workers need no coordination.
	brBase := make([]int, len(m.Funcs))
	totalBrTables := 0
	for i := range m.Funcs {
		brBase[i] = totalBrTables
		for _, in := range m.Funcs[i].Body {
			if in.Op == wasm.OpBrTable {
				totalBrTables++
			}
		}
	}

	startDefined := -1
	if m.Start != nil && int(*m.Start) >= numOldImports {
		startDefined = int(*m.Start) - numOldImports
	}

	type result struct {
		body      []wasm.Instr
		locals    []wasm.ValType
		brTables  []BrTableInfo
		callSites []uint32
		err       error
	}
	results := make([]result, len(m.Funcs))

	// Fan out over the per-function worker pool: each worker owns one pooled
	// instrumenter whose buffers are reused across all functions it
	// processes. Results are written by function index and hook ordering is
	// finalized by name below, so the output is byte-identical regardless of
	// scheduling (including Parallelism 1).
	workpool.Run(opts.Parallelism, len(m.Funcs),
		func() *funcInstrumenter { return acquireInstrumenter(m, ix, opts.Hooks, hooks) },
		releaseInstrumenter,
		func(fi *funcInstrumenter, i int) {
			body, locals, brs, calls, err := fi.instrumentFunc(i, i == startDefined, brBase[i], opts.Plan)
			results[i] = result{body, locals, brs, calls, err}
		})

	brTables := make([]BrTableInfo, totalBrTables)
	for i := range results {
		if results[i].err != nil {
			return nil, nil, results[i].err
		}
		out.Funcs[i].Body = results[i].body
		out.Funcs[i].Locals = append(out.Funcs[i].Locals, results[i].locals...)
		copy(brTables[brBase[i]:], results[i].brTables)
	}

	// Finalize the hook registry: sort hooks by name for deterministic
	// output and compute the placeholder→final permutation.
	specs, perm := hooks.finalize()
	k := len(specs)

	// Splice hook imports after the original imports and remap all function
	// indices: original defined functions shift by k; placeholders map into
	// the new import range.
	hookImports := make([]wasm.Import, 0, k)
	for i := range specs {
		ti := out.AddType(specs[i].WasmType())
		hookImports = append(hookImports, wasm.Import{
			Module: HookModule, Name: specs[i].Name, Kind: wasm.ExternFunc, TypeIdx: ti,
		})
	}
	// Imports must keep their relative order; hook (function) imports go at
	// the end, which keeps all original import indices stable.
	out.Imports = append(out.Imports, hookImports...)

	base := uint32(ix.NumFuncs())
	remap := func(idx uint32) uint32 {
		switch {
		case idx >= base: // hook placeholder
			return uint32(numOldImports) + perm[idx-base]
		case int(idx) >= numOldImports: // original defined function
			return idx + uint32(k)
		default: // original imported function
			return idx
		}
	}
	// The instrumenter recorded the body index of every call it emitted, so
	// the remap pass touches exactly those instructions instead of rescanning
	// every (hook-call-dense) instrumented body.
	for fi := range out.Funcs {
		body := out.Funcs[fi].Body
		for _, ii := range results[fi].callSites {
			body[ii].Idx = remap(body[ii].Idx)
		}
	}
	for ei := range out.Elems {
		funcs := make([]uint32, len(out.Elems[ei].Funcs))
		for j, f := range out.Elems[ei].Funcs {
			funcs[j] = remap(f)
		}
		out.Elems[ei].Funcs = funcs
	}
	for xi := range out.Exports {
		if out.Exports[xi].Kind == wasm.ExternFunc {
			out.Exports[xi].Idx = remap(out.Exports[xi].Idx)
		}
	}
	if out.Start != nil {
		s := remap(*out.Start)
		out.Start = &s
	}
	if len(out.FuncNames) > 0 {
		names := make(map[uint32]string, len(out.FuncNames))
		for idx, name := range out.FuncNames {
			// The name section is an unvalidated custom section: a name for
			// a function that does not exist is dropped, not remapped into
			// the hook range.
			if idx < base {
				names[remap(idx)] = name
			}
		}
		out.FuncNames = names
	}

	md := &Metadata{
		Hooks:            specs,
		BrTables:         brTables,
		HookSet:          opts.Hooks,
		NumImportedFuncs: numOldImports,
		NumHooks:         k,
		Info:             buildModuleInfo(m, ix),
	}
	return out, md, nil
}

// buildModuleInfo extracts the static module information analyses receive,
// expressed in the ORIGINAL function index space. ix is m's index space.
func buildModuleInfo(m *wasm.Module, ix *wasm.IndexSpace) analysis.ModuleInfo {
	n := ix.NumFuncs()
	info := analysis.ModuleInfo{
		FuncTypes:        make([]wasm.FuncType, n),
		FuncNames:        m.FuncNameList(),
		NumImportedFuncs: ix.NumImportedFuncs,
		NumGlobals:       ix.NumGlobals(),
		Exports:          make(map[string]uint32),
		Start:            -1,
	}
	for i := 0; i < n; i++ {
		ft, err := ix.FuncType(uint32(i))
		if err == nil {
			info.FuncTypes[i] = ft
		}
	}
	for _, e := range m.Exports {
		if e.Kind == wasm.ExternFunc {
			info.Exports[e.Name] = e.Idx
		}
	}
	if m.Start != nil {
		info.Start = int(*m.Start)
	}
	return info
}

// copyModule makes a copy of m deep enough that instrumentation never
// mutates the input: all top-level slices are copied; instruction slices of
// function bodies are replaced wholesale by the instrumenter.
func copyModule(m *wasm.Module) *wasm.Module {
	out := &wasm.Module{
		Types:    append([]wasm.FuncType(nil), m.Types...),
		Imports:  append([]wasm.Import(nil), m.Imports...),
		Funcs:    make([]wasm.Func, len(m.Funcs)),
		Tables:   append([]wasm.Limits(nil), m.Tables...),
		Memories: append([]wasm.Limits(nil), m.Memories...),
		Globals:  append([]wasm.Global(nil), m.Globals...),
		Exports:  append([]wasm.Export(nil), m.Exports...),
		Elems:    append([]wasm.ElemSegment(nil), m.Elems...),
		Datas:    append([]wasm.DataSegment(nil), m.Datas...),
		Customs:  append([]wasm.CustomSection(nil), m.Customs...),
	}
	for i := range m.Funcs {
		out.Funcs[i] = wasm.Func{
			TypeIdx: m.Funcs[i].TypeIdx,
			Locals:  append([]wasm.ValType(nil), m.Funcs[i].Locals...),
			Body:    m.Funcs[i].Body, // replaced by the instrumenter
			// The instrumenter preserves br_table instructions verbatim, so
			// their spans keep pointing into the original (read-only) pool.
			BrTargets: m.Funcs[i].BrTargets,
		}
	}
	if m.Start != nil {
		s := *m.Start
		out.Start = &s
	}
	if m.FuncNames != nil {
		out.FuncNames = make(map[uint32]string, len(m.FuncNames))
		for k, v := range m.FuncNames {
			out.FuncNames[k] = v
		}
	}
	return out
}
