package wasabi_test

import (
	"testing"

	"wasabi"
	"wasabi/internal/wasm"
)

// mustEngine is the test-side NewEngine: options here are fixed by the test
// author, so a bad one is a test bug, not a condition to assert on.
func mustEngine(tb testing.TB, opts ...wasabi.EngineOption) *wasabi.Engine {
	tb.Helper()
	e, err := wasabi.NewEngine(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// analyzeFor instruments m on a fresh engine for exactly the hooks a
// implements and binds a session for a.
func analyzeFor(tb testing.TB, m *wasm.Module, a any) *wasabi.Session {
	tb.Helper()
	compiled, err := mustEngine(tb).InstrumentFor(m, a)
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := compiled.NewSession(a)
	if err != nil {
		tb.Fatal(err)
	}
	return sess
}

// analyzeHooks instruments m on a fresh engine for an explicit hook set and
// binds a session for a.
func analyzeHooks(tb testing.TB, m *wasm.Module, hooks wasabi.HookSet, a any) *wasabi.Session {
	tb.Helper()
	compiled, err := mustEngine(tb).InstrumentHooks(m, hooks)
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := compiled.NewSession(a)
	if err != nil {
		tb.Fatal(err)
	}
	return sess
}
