package core_test

// End-to-end tests for the environment-fault search space: the env-rooted
// scenarios reproduce through the ranked search and trace their injection
// with its decoded kind. Their trace determinism is checked in
// golden_trace_test.go; the proof that env enumeration leaves the site
// search alone is in dyn_test.go.

import (
	"strings"
	"testing"

	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

// TestEnvScenariosReproduceEndToEnd is the tentpole acceptance test: each
// env-rooted failure's root instance is enumerated, ranked, injected and
// confirmed by the oracle, and the resulting script replays standalone.
func TestEnvScenariosReproduceEndToEnd(t *testing.T) {
	for _, id := range []string{"f23", "f24", "f25"} {
		id := id
		t.Run(id, func(t *testing.T) {
			tgt := target(t, id)
			rep := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 500})
			if !rep.Reproduced {
				t.Fatalf("%s not reproduced in %d rounds", id, rep.Rounds)
			}
			if !rep.EnvRooted {
				t.Fatalf("%s reproduced by %v, not marked env-rooted", id, rep.Script)
			}
			if inject.ClassOf(rep.Script.Site) != inject.ClassEnv {
				t.Fatalf("%s script %v is not an env pseudo-site", id, rep.Script)
			}
			// The script alone replays the failure deterministically: the
			// plan carries the env instance, so no enumeration flag needed.
			if !core.Verify(tgt, *rep.Script, rep.ScriptSeed) {
				t.Fatalf("%s script %v does not verify under seed %d", id, rep.Script, rep.ScriptSeed)
			}
		})
	}
}

// TestEnvInjectedTraceEvents: an env-rooted search's trace records the
// injection of its script as an env_injected event carrying the class,
// subject and duration of the executed fault.
func TestEnvInjectedTraceEvents(t *testing.T) {
	tgt := target(t, "f23")
	var mem trace.Memory
	rep := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 500, Trace: &mem})
	if !rep.Reproduced {
		t.Fatal("f23 not reproduced")
	}
	found := false
	for i := range mem.Events {
		ev := &mem.Events[i]
		if ev.Type != trace.EnvInjected {
			continue
		}
		if ev.Site == rep.Script.Site && ev.Occ == rep.Script.Occurrence {
			found = true
			if ev.Class != inject.EnvCrash.Name() || ev.Subject == "" || ev.Dur <= 0 {
				t.Fatalf("env_injected event incomplete: %+v", ev)
			}
			if l := trace.Line(ev); !strings.Contains(l, "env_injected") {
				t.Fatalf("rendered line does not name the event: %s", l)
			}
		}
	}
	if !found {
		t.Fatalf("no env_injected event for script %v", rep.Script)
	}
}
