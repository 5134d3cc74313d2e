package core_test

import (
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
)

func TestScriptRoundTrip(t *testing.T) {
	tgt := target(t, "f1")
	rep := core.Reproduce(tgt, core.Options{Seed: 1})
	if !rep.Reproduced {
		t.Fatal("f1 not reproduced")
	}
	script, err := core.ScriptOf(rep)
	if err != nil {
		t.Fatal(err)
	}
	data, err := script.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadScript(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Faults) != 1 || loaded.Faults[0] != *rep.Script {
		t.Fatalf("round trip: %+v vs %+v", loaded.Faults, rep.Script)
	}
	// The loaded plan must replay deterministically.
	s, _ := failures.ByID("f1")
	res := cluster.Execute(99, loaded.Plan(), false, s.Workload, s.Horizon)
	if !s.Oracle.Satisfied(res) {
		t.Fatal("loaded plan does not reproduce")
	}
}

// TestScriptCarriesSeed: f3's fault reproduces only under the seed of its
// reproducing round (2, not the master seed 1), so the script must carry
// that seed through Marshal and LoadScript for a replay to reproduce.
func TestScriptCarriesSeed(t *testing.T) {
	tgt := target(t, "f3")
	rep := core.Reproduce(tgt, core.Options{Seed: 1})
	if !rep.Reproduced {
		t.Fatal("f3 not reproduced")
	}
	script, err := core.ScriptOf(rep)
	if err != nil {
		t.Fatal(err)
	}
	data, err := script.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadScript(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed != rep.ScriptSeed {
		t.Fatalf("loaded script seed %d, reproducing round ran under %d", loaded.Seed, rep.ScriptSeed)
	}
	res := cluster.Execute(loaded.Seed, loaded.Plan(), false, tgt.Workload, tgt.Horizon)
	if !tgt.Oracle.Satisfied(res) {
		t.Fatalf("loaded plan does not reproduce under the script's seed %d", loaded.Seed)
	}
}

func TestScriptOfFailure(t *testing.T) {
	if _, err := core.ScriptOf(&core.Report{}); err == nil {
		t.Fatal("expected error for unreproduced report")
	}
	if _, err := core.ScriptOf(nil); err == nil {
		t.Fatal("expected error for nil report")
	}
	if _, err := core.LoadScript([]byte("not json")); err == nil {
		t.Fatal("expected error for bad json")
	}
	if _, err := core.LoadScript([]byte(`{"target":"x","faults":[]}`)); err == nil {
		t.Fatal("expected error for empty faults")
	}
}

func TestMultiFaultScriptPlan(t *testing.T) {
	s := &core.ScriptFile{
		Target: "toy",
		Faults: []inject.Instance{
			{Site: "a", Occurrence: 1},
			{Site: "b", Occurrence: 2},
		},
	}
	plan := s.Plan()
	rt := inject.NewRuntime(plan)
	if rt.Reach("a", inject.IO) == nil {
		t.Fatal("a#1 should inject")
	}
	if rt.Reach("b", inject.IO) != nil {
		t.Fatal("b#1 should not inject")
	}
	if rt.Reach("b", inject.IO) == nil {
		t.Fatal("b#2 should inject (multi budget)")
	}
	if len(rt.InjectedAll()) != 2 {
		t.Fatalf("injections: %d", len(rt.InjectedAll()))
	}
}
