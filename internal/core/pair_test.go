package core_test

// End-to-end regressions for the combined-fault scenarios (f30–f31): the
// pair fault class reproduces them through the ordinary feedback loop,
// the search trace is byte-identical across runs and pinned by goldens,
// and the reproduction script replays deterministically through Verify.
//
// Regenerate the pair trace goldens after an intentional change with:
//
//	go test ./internal/core -run TestPairGoldenTraces -update

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
	"anduril/internal/parallel"
	"anduril/internal/trace"
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

// pairTrace runs one pair scenario's reproduction with a trace sink.
func pairTrace(t *testing.T, id string) []byte {
	t.Helper()
	sc, _ := failures.ByID(id)
	tgt, err := sc.BuildTarget()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := trace.NewWriter(&buf)
	rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 500, Trace: sink})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if !rep.Reproduced {
		t.Fatalf("%s not reproduced in %d rounds", id, rep.Rounds)
	}
	return buf.Bytes()
}

// TestPairGoldenTraces pins the full search trajectory of each pair
// scenario; TestPairTraceDeterministic proves a second in-process run
// emits the identical byte stream.
func TestPairGoldenTraces(t *testing.T) {
	for _, id := range pairIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			got := pairTrace(t, id)
			path := fmt.Sprintf("testdata/%s.trace.jsonl", id)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("golden trace updated: %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden trace (run with -update to create it): %v", err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gotEv, gerr := trace.ReadAll(bytes.NewReader(got))
			wantEv, werr := trace.ReadAll(bytes.NewReader(want))
			if gerr != nil || werr != nil {
				t.Fatalf("trace differs from golden and does not decode: got err %v, want err %v", gerr, werr)
			}
			for _, d := range trace.Diff(wantEv, gotEv, 10) {
				t.Error(d)
			}
			t.Fatalf("trace differs from %s (%d vs %d events); rerun with -update if intentional",
				path, len(gotEv), len(wantEv))
		})
	}
}

func TestPairTraceDeterministic(t *testing.T) {
	for _, id := range pairIDs {
		a := pairTrace(t, id)
		b := pairTrace(t, id)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two runs produced different traces", id)
		}
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
