package core_test

// Golden-trace regressions and two-run determinism. The explorer's
// structured trace for a fixed (target, seed) must match its committed
// golden file byte for byte — the quickstart target (f3, ZK-4203) and
// one golden per scenario of the later fault classes (f26–f34). This
// pins the whole search trajectory — observables, site ranking, window
// growth, feedback deltas, outcome — not just the final report. Every
// f1–f34 search, in both addressing modes, must also emit the identical
// byte stream when run twice in one process.
//
// Regenerate the goldens after an intentional explorer change with:
//
//	go test ./internal/core -run 'TestGoldenTraceQuickstart|GoldenTraces' -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// searchTrace runs one failure's reproduction (seed 1 unless opts say
// otherwise) with a JSONL sink attached and returns the trace bytes. The
// search must reproduce.
func searchTrace(t *testing.T, id string, opts core.Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := trace.NewWriter(&buf)
	opts.Trace = sink
	rep := core.Reproduce(target(t, id), opts)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if !rep.Reproduced {
		t.Fatalf("%s not reproduced in %d rounds", id, rep.Rounds)
	}
	return buf.Bytes()
}

// checkGolden compares a trace with its golden file (or rewrites the
// file under -update), decoding both streams for a readable event-level
// diff on mismatch.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
	t.Fatalf("trace differs from %s (%d vs %d events); rerun with -update if the change is intentional",
		path, len(gotEv), len(wantEv))
}

// TestGoldenTraceQuickstart pins examples/quickstart: f3 with seed 1 and
// default options.
func TestGoldenTraceQuickstart(t *testing.T) {
	checkGolden(t, "testdata/quickstart.trace.jsonl", searchTrace(t, "f3", core.Options{Seed: 1}))
}

// classGoldens lists the scenarios with a golden trace of their own,
// one row per fault-class family: dyn anti-entropy (site+env), pair,
// and partial.
var classGoldens = map[string][]string{
	"dyn":     {"f26", "f27", "f28", "f29"},
	"pair":    {"f30", "f31"},
	"partial": {"f32", "f33", "f34"},
}

// runClassGoldens checks one family's goldens: testdata/<id>.trace.jsonl
// against a seed-1 search capped at 500 rounds.
func runClassGoldens(t *testing.T, family string) {
	for _, id := range classGoldens[family] {
		id := id
		t.Run(id, func(t *testing.T) {
			got := searchTrace(t, id, core.Options{Seed: 1, MaxRounds: 500})
			checkGolden(t, fmt.Sprintf("testdata/%s.trace.jsonl", id), got)
		})
	}
}

func TestDynGoldenTraces(t *testing.T)     { runClassGoldens(t, "dyn") }
func TestPairGoldenTraces(t *testing.T)    { runClassGoldens(t, "pair") }
func TestPartialGoldenTraces(t *testing.T) { runClassGoldens(t, "partial") }

// checkDeterministic runs one failure's search twice in-process under
// the given addressing and demands byte-identical traces — no map
// iteration order, scheduling, wall clock, crash/restart or partition
// timing, or path bookkeeping may leak into events.
func checkDeterministic(t *testing.T, id string, addr core.Addressing) {
	t.Helper()
	opts := core.Options{Seed: 1, MaxRounds: 500, Addressing: addr}
	if a, b := searchTrace(t, id, opts), searchTrace(t, id, opts); !bytes.Equal(a, b) {
		t.Fatalf("%s: two %s-addressed runs produced different traces", id, addr)
	}
}

// TestTraceDeterministicAcrossRuns covers every dataset failure, f1–f34,
// in both addressing modes.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	for _, sc := range failures.All() {
		for _, addr := range []core.Addressing{core.AddrOccurrence, core.AddrPath} {
			id, addr := sc.ID, addr
			t.Run(id+"/"+string(addr), func(t *testing.T) {
				t.Parallel()
				checkDeterministic(t, id, addr)
			})
		}
	}
}

// checkClassDeterministic runs one family's golden scenarios through
// checkDeterministic, occurrence-addressed.
func checkClassDeterministic(t *testing.T, family string) {
	for _, id := range classGoldens[family] {
		checkDeterministic(t, id, core.AddrOccurrence)
	}
}

// The per-family determinism checks run one fault-class family on its
// own, for the targeted chaos checks.
func TestDynTraceDeterministic(t *testing.T)     { checkClassDeterministic(t, "dyn") }
func TestPairTraceDeterministic(t *testing.T)    { checkClassDeterministic(t, "pair") }
func TestPartialTraceDeterministic(t *testing.T) { checkClassDeterministic(t, "partial") }

// TestEnvTraceDeterminism runs the env-rooted subset on its own, for
// the targeted chaos checks.
func TestEnvTraceDeterminism(t *testing.T) {
	for _, id := range []string{"f23", "f24", "f25"} {
		id := id
		t.Run(id, func(t *testing.T) { checkDeterministic(t, id, core.AddrOccurrence) })
	}
}

// A trace stream is well-formed: starts with free_run, ends with outcome,
// decodes cleanly, and its aggregate stats agree with the report.
func TestTraceWellFormed(t *testing.T) {
	sc, _ := failures.ByID("f17")
	tgt, err := sc.BuildTarget()
	if err != nil {
		t.Fatal(err)
	}
	mem := &trace.Memory{}
	rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 500, Trace: mem})
	if len(mem.Events) < 3 {
		t.Fatalf("only %d events", len(mem.Events))
	}
	if mem.Events[0].Type != trace.FreeRun {
		t.Fatalf("first event %s, want free_run", mem.Events[0].Type)
	}
	last := mem.Events[len(mem.Events)-1]
	if last.Type != trace.Outcome {
		t.Fatalf("last event %s, want outcome", last.Type)
	}
	if last.Reproduced != rep.Reproduced || last.Rounds != rep.Rounds {
		t.Fatalf("outcome (reproduced=%v rounds=%d) disagrees with report (%v, %d)",
			last.Reproduced, last.Rounds, rep.Reproduced, rep.Rounds)
	}
	if rep.Reproduced && (last.Site != rep.Script.Site || last.Occ != rep.Script.Occurrence ||
		last.ScriptSeed != rep.ScriptSeed || last.Reason != trace.ReasonReproduced) {
		t.Fatalf("outcome script %s#%d seed %d reason %s disagrees with report %v seed %d",
			last.Site, last.Occ, last.ScriptSeed, last.Reason, *rep.Script, rep.ScriptSeed)
	}
	stats := mem.Stats()
	if stats.Rounds != rep.Rounds {
		t.Fatalf("stats.Rounds=%d, report.Rounds=%d", stats.Rounds, rep.Rounds)
	}
	if stats.Injections == 0 || !stats.Reproduced {
		t.Fatalf("stats: %+v", stats)
	}
	// One free_run event, one outcome, and a decision per non-empty round.
	if stats.Events[trace.FreeRun] != 1 || stats.Events[trace.Outcome] != 1 {
		t.Fatalf("event counts: %v", stats.Events)
	}
}

// The terminal outcome distinguishes the guards: an unreproducible search
// under a tiny round cap reports round-cap; an exhausted queue reports
// fault-space exhaustion.
func TestTraceOutcomeReasons(t *testing.T) {
	sc, _ := failures.ByID("f17")
	tgt, err := sc.BuildTarget()
	if err != nil {
		t.Fatal(err)
	}
	mem := &trace.Memory{}
	core.Reproduce(tgt, core.Options{Strategy: core.Exhaustive, Seed: 1, MaxRounds: 1, Trace: mem})
	last := mem.Events[len(mem.Events)-1]
	if last.Type != trace.Outcome || last.Reproduced {
		t.Fatalf("outcome: %+v", last)
	}
	if last.Reason != trace.ReasonRoundCap {
		t.Fatalf("reason %q, want %q", last.Reason, trace.ReasonRoundCap)
	}

	// The CrashTuner queue for a failure without meta-info sites can drain
	// before the cap: the outcome must say exhausted, not round-cap.
	mem = &trace.Memory{}
	rep := core.Reproduce(tgt, core.Options{Strategy: core.CrashTuner, Seed: 1, MaxRounds: 500, Trace: mem})
	last = mem.Events[len(mem.Events)-1]
	if !rep.Reproduced && rep.Rounds < 500 && last.Reason != trace.ReasonExhausted {
		t.Fatalf("reason %q after %d rounds, want %q", last.Reason, rep.Rounds, trace.ReasonExhausted)
	}
}
