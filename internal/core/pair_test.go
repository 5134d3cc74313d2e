package core_test

// End-to-end regressions for the combined-fault scenarios (f30–f31): the
// pair fault class reproduces them through the ordinary feedback loop,
// and the reproduction script replays deterministically through Verify.
// Their traces are golden-pinned and determinism-checked with every
// other scenario's in golden_trace_test.go.

import (
	"bytes"
	"fmt"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
	"anduril/internal/parallel"
)

var pairIDs = []string{"f30", "f31"}

// TestPairScenariosReproduceEndToEnd: the full feedback workflow finds
// the declared ground-truth pair for every combined-fault scenario, the
// script decomposes into two members, and Verify replays it.
func TestPairScenariosReproduceEndToEnd(t *testing.T) {
	for _, id := range pairIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			sc, ok := failures.ByID(id)
			if !ok {
				t.Fatalf("scenario %s not registered", id)
			}
			tgt, err := sc.BuildTarget()
			if err != nil {
				t.Fatal(err)
			}
			rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 500})
			if !rep.Reproduced {
				t.Fatalf("%s not reproduced in %d rounds", id, rep.Rounds)
			}
			if rep.Script.Site != sc.RootSite {
				t.Fatalf("%s reproduced via %v, ground truth %s", id, *rep.Script, sc.RootSite)
			}
			if _, _, ok := inject.PairMembers(*rep.Script); !ok {
				t.Fatalf("%s: script %v does not decompose into pair members", id, *rep.Script)
			}
			if !core.Verify(tgt, *rep.Script, rep.ScriptSeed) {
				t.Fatalf("%s: script %v does not verify", id, *rep.Script)
			}
		})
	}
}

// TestPairTemporalDistanceFixedAtSetup: every pair instance's temporal
// distance, stored once at setup, equals the member-wise nearest-observable
// sum recomputed from the observables.
func TestPairTemporalDistanceFixedAtSetup(t *testing.T) {
	for _, id := range pairIDs {
		stored, recomputed, err := core.PairTemporalDistances(target(t, id), core.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(stored) == 0 {
			t.Fatalf("%s: setup enumerated no pair instances", id)
		}
		for i := range stored {
			if stored[i] != recomputed[i] {
				t.Fatalf("%s: pair instance %d stores T=%v, members sum to %v", id, i, stored[i], recomputed[i])
			}
		}
	}
}

// TestConcurrentDynSearchesMatchSerial: dyn searches running concurrently
// share immutable rings; their canonical reports must equal a serial
// run's byte for byte (run under -race in CI).
func TestConcurrentDynSearchesMatchSerial(t *testing.T) {
	ids := []string{"f26", "f29", "f30"}
	tgts := make([]*core.Target, len(ids))
	for i, id := range ids {
		tgts[i] = target(t, id)
	}
	canonical := func(workers int) [][]byte {
		out, err := parallel.Map(workers, tgts, func(_ int, tgt *core.Target) ([]byte, error) {
			rep := core.Reproduce(tgt, core.Options{Seed: 1})
			if !rep.Reproduced {
				return nil, fmt.Errorf("%s not reproduced in %d rounds", tgt.ID, rep.Rounds)
			}
			return core.CanonicalReport(rep)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, concurrent := canonical(1), canonical(len(ids))
	for i, id := range ids {
		if !bytes.Equal(serial[i], concurrent[i]) {
			t.Errorf("%s: concurrent canonical report differs from the serial run", id)
		}
	}
}
