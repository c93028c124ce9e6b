// Package faithfulness holds the RQ2 evaluation of the paper: instrumented
// programs must behave exactly like the originals. It runs the full
// PolyBench suite and the synthetic applications original vs. fully
// instrumented (with the empty analysis), compares the printed results and
// return values, and validates every instrumented binary — the roles played
// in the paper by the PolyBench output check, the Unreal reference frames,
// and wasm-validate.
package faithfulness

import (
	"testing"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
	"wasabi/internal/synthapp"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
)

const problemSize = 10

// TestPolyBenchFaithfulness runs all 30 kernels original vs fully
// instrumented and compares checksums bit-for-bit (and against the Go
// reference evaluation).
// analyze instruments m on a fresh engine for the hooks a implements and
// binds a session for a.
func analyze(m *wasm.Module, a any) (*wasabi.Session, error) {
	engine, err := wasabi.NewEngine()
	if err != nil {
		return nil, err
	}
	compiled, err := engine.InstrumentFor(m, a)
	if err != nil {
		return nil, err
	}
	return compiled.NewSession(a)
}

// analyzeHooks instruments m on a fresh engine for an explicit hook set and
// binds a session for a.
func analyzeHooks(m *wasm.Module, hooks analysis.HookSet, a any) (*wasabi.Session, error) {
	engine, err := wasabi.NewEngine()
	if err != nil {
		return nil, err
	}
	compiled, err := engine.InstrumentHooks(m, hooks)
	if err != nil {
		return nil, err
	}
	return compiled.NewSession(a)
}

func TestPolyBenchFaithfulness(t *testing.T) {
	for _, k := range polybench.Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			m := k.Module(problemSize)
			want := k.Reference(problemSize)

			orig, _, err := polybench.Run(m, nil)
			if err != nil {
				t.Fatalf("original run: %v", err)
			}
			if orig != want {
				t.Fatalf("original checksum %v != reference %v", orig, want)
			}

			sess, err := analyzeHooks(m, analysis.AllHooks, &analyses.Empty{})
			if err != nil {
				t.Fatalf("instrument: %v", err)
			}
			if err := validate.Module(sess.Module()); err != nil {
				t.Fatalf("instrumented module fails validation: %v", err)
			}
			var printed []float64
			inst, err := sess.Instantiate("", polybench.HostImports(&printed))
			if err != nil {
				t.Fatalf("instantiate instrumented: %v", err)
			}
			res, err := inst.Invoke("kernel")
			if err != nil {
				t.Fatalf("run instrumented: %v", err)
			}
			got := interp.AsF64(res[0])
			if got != want {
				t.Errorf("instrumented checksum %v != original %v", got, want)
			}
			if len(printed) != 1 || printed[0] != want {
				t.Errorf("instrumented printed %v, want [%v]", printed, want)
			}
		})
	}
}

// TestPolyBenchPerHookFaithfulness runs a representative kernel under every
// single-hook selective instrumentation and checks the result each time
// (instrumentations for different instruction kinds must be independent,
// paper §2.4.2).
func TestPolyBenchPerHookFaithfulness(t *testing.T) {
	k, ok := polybench.ByName("gemm")
	if !ok {
		t.Fatal("gemm missing")
	}
	m := k.Module(8)
	want := k.Reference(8)
	for kind := analysis.HookKind(0); int(kind) < analysis.NumKinds; kind++ {
		kind := kind
		if kind == analysis.KindBlockProbe {
			continue // probes need a static plan; exercised just below
		}
		t.Run(kind.String(), func(t *testing.T) {
			sess, err := analyzeHooks(m, analysis.Set(kind), &analyses.Empty{})
			if err != nil {
				t.Fatalf("instrument: %v", err)
			}
			if err := validate.Module(sess.Module()); err != nil {
				t.Fatalf("validation: %v", err)
			}
			inst, err := sess.Instantiate("", polybench.HostImports(nil))
			if err != nil {
				t.Fatalf("instantiate: %v", err)
			}
			res, err := inst.Invoke("kernel")
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got := interp.AsF64(res[0]); got != want {
				t.Errorf("checksum %v != %v with only %s instrumented", got, want, kind)
			}
		})
	}

	// Block-probe instrumentation (the static plan's coverage collapse) is
	// the one hook kind the loop above cannot drive: probes only exist where
	// a plan places them. Run the kernel through a static-analysis engine
	// with a coverage analysis and check the checksum is untouched.
	t.Run("block_probe", func(t *testing.T) {
		eng, err := wasabi.NewEngine(wasabi.WithStaticAnalysis())
		if err != nil {
			t.Fatal(err)
		}
		ca, err := eng.InstrumentFor(m, analyses.NewInstructionCoverage())
		if err != nil {
			t.Fatalf("instrument: %v", err)
		}
		if err := validate.Module(ca.Module()); err != nil {
			t.Fatalf("validation: %v", err)
		}
		sess, err := ca.NewSession(analyses.NewInstructionCoverage())
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		defer sess.Close()
		inst, err := sess.Instantiate("", polybench.HostImports(nil))
		if err != nil {
			t.Fatalf("instantiate: %v", err)
		}
		res, err := inst.Invoke("kernel")
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if got := interp.AsF64(res[0]); got != want {
			t.Errorf("checksum %v != %v under block-probe instrumentation", got, want)
		}
	})
}

// TestSynthAppFaithfulness checks the diverse synthetic application computes
// identical results fully instrumented, across several seeds.
func TestSynthAppFaithfulness(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		m := synthapp.Generate(synthapp.Config{TargetBytes: 50_000, Seed: seed})
		want, err := synthapp.Run(m, 64)
		if err != nil {
			t.Fatalf("seed %d: original: %v", seed, err)
		}
		sess, err := analyzeHooks(m, analysis.AllHooks, &analyses.Empty{})
		if err != nil {
			t.Fatalf("seed %d: instrument: %v", seed, err)
		}
		if err := validate.Module(sess.Module()); err != nil {
			t.Fatalf("seed %d: validation: %v", seed, err)
		}
		inst, err := sess.Instantiate("", nil)
		if err != nil {
			t.Fatalf("seed %d: instantiate: %v", seed, err)
		}
		res, err := inst.Invoke("main", interp.I32(64))
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if got := interp.AsI32(res[0]); got != want {
			t.Errorf("seed %d: instrumented result %d != original %d", seed, got, want)
		}
	}
}

// TestRealAnalysesPreserveBehavior runs a kernel under each bundled analysis
// (not just the empty one) and checks the checksum is unchanged — analyses
// must observe, never interfere.
func TestRealAnalysesPreserveBehavior(t *testing.T) {
	k, _ := polybench.ByName("atax")
	m := k.Module(10)
	want := k.Reference(10)
	for _, name := range analyses.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := analyses.New(name)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := analyze(m, a)
			if err != nil {
				t.Fatalf("instrument: %v", err)
			}
			inst, err := sess.Instantiate("", polybench.HostImports(nil))
			if err != nil {
				t.Fatalf("instantiate: %v", err)
			}
			res, err := inst.Invoke("kernel")
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got := interp.AsF64(res[0]); got != want {
				t.Errorf("analysis %s changed checksum: %v != %v", name, got, want)
			}
		})
	}
}
