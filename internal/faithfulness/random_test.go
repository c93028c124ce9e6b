package faithfulness

import (
	"math/rand"
	"testing"

	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/interp"
	"wasabi/internal/synthapp"
	"wasabi/internal/validate"
)

// TestRandomModulesRandomHookSubsets is the widest property sweep in the
// repository: randomly generated diverse modules instrumented with random
// hook subsets must (a) still validate and (b) compute identical results.
// This covers interactions between hook kinds that the per-kind tests miss
// (e.g. br_if end-blocks combined with call hooks on the same instruction
// stream).
func TestRandomModulesRandomHookSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 24; trial++ {
		seed := uint64(trial)*7 + 1
		m := synthapp.Generate(synthapp.Config{TargetBytes: 25_000, Seed: seed, Helpers: 12})
		want, err := synthapp.Run(m, 40)
		if err != nil {
			t.Fatalf("trial %d: original run: %v", trial, err)
		}

		set := analysis.HookSet(rng.Uint32()) & analysis.AllHooks
		sess, err := analyzeHooks(m, set, &analyses.Empty{})
		if err != nil {
			t.Fatalf("trial %d (hooks %s): instrument: %v", trial, set, err)
		}
		if err := validate.Module(sess.Module()); err != nil {
			t.Fatalf("trial %d (hooks %s): instrumented module invalid: %v", trial, set, err)
		}
		inst, err := sess.Instantiate("", nil)
		if err != nil {
			t.Fatalf("trial %d (hooks %s): instantiate: %v", trial, set, err)
		}
		res, err := inst.Invoke("main", interp.I32(40))
		if err != nil {
			t.Fatalf("trial %d (hooks %s): run: %v", trial, set, err)
		}
		if got := interp.AsI32(res[0]); got != want {
			t.Errorf("trial %d (hooks %s): result %d != original %d", trial, set, got, want)
		}
	}
}

// TestRandomModulesWithRecordingAnalysis runs random modules under an
// analysis that implements every hook (not the no-op one), checking that a
// busy analysis never perturbs results either.
func TestRandomModulesWithRecordingAnalysis(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		seed := uint64(trial)*13 + 3
		m := synthapp.Generate(synthapp.Config{TargetBytes: 20_000, Seed: seed, Helpers: 8})
		want, err := synthapp.Run(m, 32)
		if err != nil {
			t.Fatal(err)
		}
		mix := analyses.NewInstructionMix()
		sess, err := analyze(m, mix)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := sess.Instantiate("", nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := inst.Invoke("main", interp.I32(32))
		if err != nil {
			t.Fatal(err)
		}
		if got := interp.AsI32(res[0]); got != want {
			t.Errorf("trial %d: result %d != %d", trial, got, want)
		}
		if mix.Total() == 0 {
			t.Errorf("trial %d: analysis observed nothing", trial)
		}
	}
}
