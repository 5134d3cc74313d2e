package core_test

// End-to-end regressions for the partial-failure scenarios (f32–f34): the
// partial fault class reproduces them through the ordinary feedback loop,
// the reproduction scripts replay through Verify, and the injection is
// traced with its decoded kind. Their traces are golden-pinned and
// determinism-checked in golden_trace_test.go; the proof that partial
// enumeration leaves the site search alone is in dyn_test.go.

import (
	"strings"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

var partialIDs = []string{"f32", "f33", "f34"}

// TestPartialScenariosReproduceEndToEnd is the tentpole acceptance test:
// each partial-rooted failure's root instance is enumerated from the free
// run, ranked, injected and confirmed by the oracle, and the resulting
// script replays standalone (the plan carries the partial instance, so
// Verify needs no enumeration flag).
func TestPartialScenariosReproduceEndToEnd(t *testing.T) {
	for _, id := range partialIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			sc, ok := failures.ByID(id)
			if !ok {
				t.Fatalf("scenario %s not registered", id)
			}
			tgt := target(t, id)
			rep := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 500})
			if !rep.Reproduced {
				t.Fatalf("%s not reproduced in %d rounds", id, rep.Rounds)
			}
			if !rep.PartialRooted {
				t.Fatalf("%s reproduced by %v, not marked partial-rooted", id, rep.Script)
			}
			if inject.ClassOf(rep.Script.Site) != inject.ClassPartial {
				t.Fatalf("%s script %v is not a partial pseudo-site", id, rep.Script)
			}
			if rep.Script.Site != sc.RootSite {
				t.Fatalf("%s reproduced via %v, ground truth %s", id, *rep.Script, sc.RootSite)
			}
			if !core.Verify(tgt, *rep.Script, rep.ScriptSeed) {
				t.Fatalf("%s script %v does not verify under seed %d", id, rep.Script, rep.ScriptSeed)
			}
		})
	}
}

// TestPartialInjectedTraceEvents: a partial-rooted search's trace records
// the injection of its script as a partial_injected event carrying the
// partial class and subject (and peer, for channel-scoped classes like
// dup-deliver) of the executed fault.
func TestPartialInjectedTraceEvents(t *testing.T) {
	tgt := target(t, "f34")
	var mem trace.Memory
	rep := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 500, Trace: &mem})
	if !rep.Reproduced {
		t.Fatal("f34 not reproduced")
	}
	found := false
	for i := range mem.Events {
		ev := &mem.Events[i]
		if ev.Type != trace.PartialInjected {
			continue
		}
		if ev.Site == rep.Script.Site && ev.Occ == rep.Script.Occurrence {
			found = true
			if ev.Class != inject.PartialDupDeliver.Name() || ev.Subject != "mq-producer-1" || ev.Peer != "broker-a" {
				t.Fatalf("partial_injected event incomplete: %+v", ev)
			}
			if l := trace.Line(ev); !strings.Contains(l, "partial_injected") {
				t.Fatalf("rendered line does not name the event: %s", l)
			}
		}
	}
	if !found {
		t.Fatalf("no partial_injected event for script %v", rep.Script)
	}
}
