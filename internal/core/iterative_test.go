package core_test

import (
	"testing"

	"anduril/internal/analysis"
	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/logging"
	"anduril/internal/oracle"
	"anduril/internal/sys/toy"
)

// buildToyTarget assembles the two-fault toy service target: the failure
// needs a store-scrub fault AND a peer-ping fault in the degraded window.
func buildToyTarget(t *testing.T) *core.Target {
	t.Helper()
	an, err := analysis.AnalyzePackages([]string{"internal/sys/toy"})
	if err != nil {
		t.Fatal(err)
	}
	orc := oracle.LogContains("service entered unrecoverable state")
	// The "production" incident: scrub fault at occurrence 2 (t=200ms)
	// plus a ping flake at occurrence 2 (t=260ms), inside the window.
	prodPlan := inject.Multi(
		inject.Exact(inject.Instance{Site: "toy.scrub-store", Occurrence: 2}),
		inject.Exact(inject.Instance{Site: "toy.ping-peer", Occurrence: 2}),
	)
	prod := cluster.Execute(9999, prodPlan, false, toy.Workload, toy.Horizon)
	if !orc.Satisfied(prod) {
		t.Fatalf("two-fault incident not triggered:\n%s", prod.RenderLog())
	}
	return &core.Target{
		ID:         "toy-two-fault",
		Workload:   toy.Workload,
		Horizon:    toy.Horizon,
		Oracle:     orc,
		FailureLog: logging.Parse(prod.RenderLog()),
		Analysis:   an,
	}
}

func TestSingleFaultSearchCannotReproduceTwoFaultFailure(t *testing.T) {
	tgt := buildToyTarget(t)
	rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 100})
	if rep.Reproduced {
		t.Fatalf("single-fault search should fail, found %v", rep.Script)
	}
	if rep.BestPartial == nil {
		t.Fatal("no best partial recorded")
	}
	// The scrub fault is the closer partial: it produces one of the two
	// missing observables.
	if rep.BestPartial.Site != "toy.scrub-store" {
		t.Fatalf("best partial = %v, want toy.scrub-store", rep.BestPartial)
	}
	t.Logf("single-fault pass: rounds=%d bestPartial=%v missing=%d",
		rep.Rounds, *rep.BestPartial, rep.BestPartialMissing)
}

func TestIterativeReproducesTwoFaultFailure(t *testing.T) {
	tgt := buildToyTarget(t)
	iter := core.ReproduceIterative(tgt, core.Options{Seed: 1, MaxRounds: 100}, 2)
	if !iter.Reproduced {
		t.Fatalf("iterative search failed after %d passes", len(iter.Reports))
	}
	if len(iter.Scripts) != 2 {
		t.Fatalf("scripts: %v", iter.Scripts)
	}
	t.Logf("iterative scripts: %v (pass rounds: %d then %d)",
		iter.Scripts, iter.Reports[0].Rounds, iter.Reports[1].Rounds)
	if !core.VerifyMulti(tgt, iter.Scripts, 4321) {
		t.Fatal("multi-fault script does not verify")
	}
	// The exported artifact records the last pass's reproducing seed.
	script, err := core.ScriptOfIter(iter)
	if err != nil {
		t.Fatal(err)
	}
	if last := iter.Reports[len(iter.Reports)-1]; script.Seed != last.ScriptSeed {
		t.Fatalf("script seed %d, last pass reproduced under %d", script.Seed, last.ScriptSeed)
	}
	if !core.VerifyMulti(tgt, script.Faults, script.Seed) {
		t.Fatal("multi-fault script does not verify under its recorded seed")
	}
}

func TestRunsPerRoundStillReproduces(t *testing.T) {
	tgt := target(t, "f1")
	rep := core.Reproduce(tgt, core.Options{Seed: 1, RunsPerRound: 3, MaxRounds: 100})
	if !rep.Reproduced {
		t.Fatalf("not reproduced with combined logs in %d rounds", rep.Rounds)
	}
}

func TestMissingObsTracked(t *testing.T) {
	tgt := buildToyTarget(t)
	rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 50})
	sawMissing := false
	for _, rd := range rep.RoundLog {
		if rd.Injected != nil && rd.MissingObs > 0 {
			sawMissing = true
		}
	}
	if !sawMissing {
		t.Fatal("missing-observable counts never recorded")
	}
}
