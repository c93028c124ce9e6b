package main

import (
	"encoding/binary"
	"time"

	"wasabi/internal/interp"
	"wasabi/internal/wasi"
	"wasabi/internal/wasm"
)

// Preview1 errnos the shim returns.
const (
	errnoSuccess = 0
	errnoBadf    = 8
	errnoNosys   = 52
)

// wasiStats counts and times every host call the guest makes through the
// shim (the wasi.calls and wasi.busy_s per-layer metrics).
type wasiStats struct {
	calls int64
	busy  time.Duration
}

// wasiImports builds the guest's wasi_snapshot_preview1 import map:
// internal/wasi's provider plus the five calls Go's wasip1 runtime also
// imports, each answered the way a sandbox without preopened directories
// answers. The map is passed as program imports, which take precedence
// over an engine's WithWASI provider, so the guest sees the same host
// whatever internal/wasi implements. Every function is wrapped to count
// and time its calls into st.
func wasiImports(cfg wasi.Config, st *wasiStats) (interp.Imports, *wasi.System) {
	sys := wasi.New(cfg)
	fns := sys.Imports()
	for name, hf := range goRuntimeStubs() {
		fns[name] = hf
	}
	for name, v := range fns {
		hf, ok := v.(*interp.HostFunc)
		if !ok {
			continue
		}
		inner := hf.Fn
		fns[name] = &interp.HostFunc{
			Type: hf.Type,
			Fn: func(inst *interp.Instance, args []interp.Value) ([]interp.Value, error) {
				t := time.Now()
				res, err := inner(inst, args)
				st.busy += time.Since(t)
				st.calls++
				return res, err
			},
		}
	}
	return interp.Imports{wasi.ModuleName: fns}, sys
}

// goRuntimeStubs returns the preview1 calls Go's wasip1 runtime imports
// beyond what internal/wasi provides.
func goRuntimeStubs() map[string]*interp.HostFunc {
	errno := func(code uint64, params int) *interp.HostFunc {
		ps := make([]wasm.ValType, params)
		for i := range ps {
			ps[i] = wasm.I32
		}
		return &interp.HostFunc{
			Type: wasm.FuncType{Params: ps, Results: []wasm.ValType{wasm.I32}},
			Fn: func(*interp.Instance, []interp.Value) ([]interp.Value, error) {
				return []interp.Value{code}, nil
			},
		}
	}
	poll := errno(errnoSuccess, 4)
	poll.Fn = pollOneoff
	return map[string]*interp.HostFunc{
		"sched_yield":         errno(errnoSuccess, 0),
		"poll_oneoff":         poll,
		"fd_fdstat_set_flags": errno(errnoNosys, 2),
		"fd_prestat_get":      errno(errnoBadf, 2),
		"fd_prestat_dir_name": errno(errnoBadf, 3),
	}
}

// pollOneoff(in, out, nsubscriptions, nevents_out) reports every
// subscription as ready at once: clock subscriptions (Go's runtime sleeps
// through them) fire immediately, which is what a host with a mock clock
// can honestly say. Layouts: subscription 48 bytes (userdata u64 at 0, tag
// u8 at 8); event 32 bytes (userdata u64 at 0, errno u16 at 8, type u8 at
// 10).
func pollOneoff(inst *interp.Instance, args []interp.Value) ([]interp.Value, error) {
	const efault = 21
	in, out, n, nout := uint64(uint32(args[0])), uint64(uint32(args[1])), uint64(uint32(args[2])), uint64(uint32(args[3]))
	if inst.Memory == nil {
		return []interp.Value{efault}, nil
	}
	mem := inst.Memory.Data
	if in+48*n > uint64(len(mem)) || out+32*n > uint64(len(mem)) || nout+4 > uint64(len(mem)) {
		return []interp.Value{efault}, nil
	}
	for i := uint64(0); i < n; i++ {
		sub := mem[in+48*i:]
		ev := mem[out+32*i : out+32*i+32]
		clear(ev)
		copy(ev[0:8], sub[0:8])
		ev[10] = sub[8]
	}
	binary.LittleEndian.PutUint32(mem[nout:], uint32(n))
	return []interp.Value{errnoSuccess}, nil
}
