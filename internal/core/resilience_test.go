package core_test

// Tests for the resilient search runtime: checkpoint/resume equivalence
// (a killed-and-resumed search is byte-identical to an uninterrupted one),
// trial isolation (target panics, livelocks and oracle panics degrade to
// inconclusive rounds instead of killing the process), and the watchdogs.

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

// resumeFixtures are the dataset failures the equivalence tests run over.
// Window 1 slows f1/f4 down to 15+ rounds so an interruption at round 4
// leaves real work to resume; f9 needs 19 rounds at the default window.
// f25 is the env-rooted fixture: its delay-channel root takes the search
// past 100 rounds, so the checkpoint envelope round-trips env instances
// in the tried set and the recorded fault classes.
var resumeFixtures = []struct {
	id     string
	window int
}{
	{"f1", 1},
	{"f4", 1},
	{"f9", 0},
	{"f25", 0},
}

func lines(events []trace.Event) []string {
	out := make([]string, len(events))
	for i := range events {
		out[i] = trace.Line(&events[i])
	}
	return out
}

// normalized strips wall-clock measurements — the only fields that can
// differ between two executions of the same deterministic search — and
// returns the report's canonical JSON.
func normalized(t *testing.T, rep *core.Report) string {
	t.Helper()
	cp := *rep
	cp.Elapsed, cp.FreeRunTime = 0, 0
	cp.RoundLog = append([]core.Round(nil), rep.RoundLog...)
	for i := range cp.RoundLog {
		cp.RoundLog[i].InitTime, cp.RoundLog[i].RunTime, cp.RoundLog[i].DecideTime = 0, 0, 0
	}
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestResumeTraceEquivalence is the core checkpoint contract: run a search
// to completion; run it again but kill it (deterministically) at a
// checkpoint boundary; resume from the checkpoint. The interrupted trace
// must be a strict prefix of the full trace, the resumed trace must be
// exactly the remaining suffix, and the final reports must match.
func TestResumeTraceEquivalence(t *testing.T) {
	for _, fx := range resumeFixtures {
		fx := fx
		t.Run(fx.id, func(t *testing.T) {
			tgt := target(t, fx.id)
			base := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: fx.window}

			var full trace.Memory
			optsFull := base
			optsFull.Trace = &full
			repFull := core.Reproduce(tgt, optsFull)
			if !repFull.Reproduced {
				t.Fatalf("%s baseline not reproduced", fx.id)
			}
			if repFull.Rounds <= 4 {
				t.Fatalf("%s reproduces in %d rounds; fixture must outlive the round-4 kill", fx.id, repFull.Rounds)
			}

			ck := filepath.Join(t.TempDir(), "search.ck.json")
			var part trace.Memory
			optsKill := base
			optsKill.Trace = &part
			optsKill.Checkpoint = ck
			optsKill.CheckpointEvery = 2
			optsKill.StopAfterRound = 4
			repKill := core.Reproduce(tgt, optsKill)
			if !repKill.Interrupted {
				t.Fatal("killed run not marked interrupted")
			}
			if repKill.Reproduced {
				t.Fatal("killed run claims reproduction")
			}
			if repKill.Rounds != 4 {
				t.Fatalf("killed run recorded %d rounds, want 4", repKill.Rounds)
			}

			fullLines, partLines := lines(full.Events), lines(part.Events)
			if len(partLines) == 0 || len(partLines) >= len(fullLines) {
				t.Fatalf("interrupted trace has %d events vs full %d", len(partLines), len(fullLines))
			}
			for i, l := range partLines {
				if l != fullLines[i] {
					t.Fatalf("interrupted trace is not a prefix; event %d:\n- %s\n+ %s", i+1, fullLines[i], l)
				}
			}

			var rest trace.Memory
			optsResume := base
			optsResume.Trace = &rest
			optsResume.Checkpoint = ck
			optsResume.CheckpointEvery = 2
			repRes, err := core.Resume(tgt, optsResume, ck)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			got := append(append([]string(nil), partLines...), lines(rest.Events)...)
			if len(got) != len(fullLines) {
				t.Fatalf("concatenated trace has %d events, full run %d", len(got), len(fullLines))
			}
			for i := range got {
				if got[i] != fullLines[i] {
					t.Fatalf("resumed trace diverges at event %d:\n- %s\n+ %s", i+1, fullLines[i], got[i])
				}
			}
			if a, b := normalized(t, repFull), normalized(t, repRes); a != b {
				t.Fatalf("final reports differ:\nfull:    %s\nresumed: %s", a, b)
			}
		})
	}
}

// pickPoison finds a baseline round whose injected instance is not the
// final script — a candidate the search tries and moves past, which the
// isolation tests turn into a trap.
func pickPoison(t *testing.T, rep *core.Report) inject.Instance {
	t.Helper()
	for _, rd := range rep.RoundLog {
		if rd.Injected != nil && *rd.Injected != *rep.Script {
			return *rd.Injected
		}
	}
	t.Fatal("baseline has no non-script injection to poison")
	return inject.Instance{}
}

// poisonWorkload wraps a target so that injecting the poison instance
// triggers trap (from a watcher actor polling the injection runtime).
func poisonWorkload(tgt *core.Target, poison inject.Instance, trap func(env *cluster.Env)) *core.Target {
	cp := *tgt
	orig := tgt.Workload
	cp.Workload = func(env *cluster.Env) {
		orig(env)
		fired := false
		env.Sim.Every("poison-watch", des.Millisecond, func() {
			if fired {
				return
			}
			for _, ev := range env.FI.InjectedAll() {
				if ev.Site == poison.Site && ev.Occurrence == poison.Occurrence {
					fired = true
					trap(env)
					return
				}
			}
		})
	}
	return &cp
}

func inconclusiveClasses(events []trace.Event) []string {
	var out []string
	for i := range events {
		if events[i].Type == trace.Inconclusive {
			out = append(out, events[i].Class)
		}
	}
	return out
}

// TestPanicIsolation: a target that panics whenever one specific candidate
// is injected must not kill the process; the poisoned rounds degrade to
// inconclusive and the search still reproduces the failure.
func TestPanicIsolation(t *testing.T) {
	tgt := target(t, "f1")
	base := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}
	baseline := core.Reproduce(tgt, base)
	if !baseline.Reproduced {
		t.Fatal("baseline not reproduced")
	}
	poison := pickPoison(t, baseline)

	wrapped := poisonWorkload(tgt, poison, func(env *cluster.Env) {
		panic("poisoned trial: injected " + poison.Site)
	})
	var mem trace.Memory
	opts := base
	opts.Trace = &mem
	rep := core.Reproduce(wrapped, opts)
	if !rep.Reproduced {
		t.Fatalf("search died under a panicking target: %+v", rep)
	}
	if rep.InconclusiveRounds < 1 {
		t.Fatal("no inconclusive rounds recorded for the poisoned candidate")
	}
	classes := inconclusiveClasses(mem.Events)
	if len(classes) == 0 || classes[0] != cluster.ClassPanic {
		t.Fatalf("inconclusive classes = %v, want leading %q", classes, cluster.ClassPanic)
	}
	// The report mirrors the trace.
	found := false
	for _, rd := range rep.RoundLog {
		if rd.Inconclusive && rd.Failure == cluster.ClassPanic {
			found = true
		}
	}
	if !found {
		t.Fatal("report has no inconclusive round of class panic")
	}
}

// TestLivelockWatchdog: a poisoned trial that spins in a zero-delay
// self-scheduling loop never advances virtual time, so only the event
// budget can end it. The round must degrade to inconclusive (class
// event-budget) within the budget, and the search must still reproduce.
func TestLivelockWatchdog(t *testing.T) {
	tgt := target(t, "f1")
	base := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}
	baseline := core.Reproduce(tgt, base)
	if !baseline.Reproduced {
		t.Fatal("baseline not reproduced")
	}
	poison := pickPoison(t, baseline)

	wrapped := poisonWorkload(tgt, poison, func(env *cluster.Env) {
		var spin func()
		spin = func() { env.Sim.Go("livelock", spin) }
		env.Sim.Go("livelock", spin)
	})
	var mem trace.Memory
	opts := base
	opts.Trace = &mem
	rep := core.Reproduce(wrapped, opts)
	if !rep.Reproduced {
		t.Fatalf("search hung or died under a livelocked target: %+v", rep)
	}
	if rep.InconclusiveRounds < 1 {
		t.Fatal("no inconclusive rounds recorded for the livelocked candidate")
	}
	classes := inconclusiveClasses(mem.Events)
	if len(classes) == 0 || classes[0] != cluster.ClassEventBudget {
		t.Fatalf("inconclusive classes = %v, want leading %q", classes, cluster.ClassEventBudget)
	}
}

// TestOraclePanicDegrades: an oracle that panics on one specific injection
// is recovered into an inconclusive round of class oracle.
func TestOraclePanicDegrades(t *testing.T) {
	tgt := target(t, "f1")
	base := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}
	baseline := core.Reproduce(tgt, base)
	if !baseline.Reproduced {
		t.Fatal("baseline not reproduced")
	}
	poison := pickPoison(t, baseline)

	cp := *tgt
	orig := tgt.Oracle
	cp.Oracle.Check = func(r *cluster.Result) bool {
		for _, ev := range r.Env.FI.InjectedAll() {
			if ev.Site == poison.Site && ev.Occurrence == poison.Occurrence {
				panic("oracle bug on " + poison.Site)
			}
		}
		return orig.Satisfied(r)
	}
	var mem trace.Memory
	opts := base
	opts.Trace = &mem
	rep := core.Reproduce(&cp, opts)
	if !rep.Reproduced {
		t.Fatalf("search died under a panicking oracle: %+v", rep)
	}
	if rep.InconclusiveRounds < 1 {
		t.Fatal("no inconclusive rounds recorded for the oracle panic")
	}
	classes := inconclusiveClasses(mem.Events)
	if len(classes) == 0 || classes[0] != cluster.ClassOracle {
		t.Fatalf("inconclusive classes = %v, want leading %q", classes, cluster.ClassOracle)
	}
}

// TestFreeRunPanicIsFatalButContained: a target that always panics cannot
// be searched at all — but the process survives and the report says why.
func TestFreeRunPanicIsFatalButContained(t *testing.T) {
	tgt := target(t, "f1")
	cp := *tgt
	cp.Workload = func(env *cluster.Env) {
		env.Sim.Go("broken", func() { panic("boot failure") })
	}
	var mem trace.Memory
	rep := core.Reproduce(&cp, core.Options{Strategy: core.FullFeedback, Seed: 1, Trace: &mem})
	if rep.Reproduced {
		t.Fatal("reproduced with a target that cannot even boot")
	}
	if rep.Error == "" || !strings.Contains(rep.Error, "free run failed twice") {
		t.Fatalf("Error = %q, want free-run failure", rep.Error)
	}
	if n := len(mem.Events); n == 0 || mem.Events[n-1].Type != trace.Outcome || mem.Events[n-1].Reason != trace.ReasonError {
		t.Fatalf("trace does not end in a %s outcome", trace.ReasonError)
	}
}

// TestResumeRejectsMismatchedCheckpoint: a checkpoint resumed against the
// wrong target, seed or strategy is an error, never a silent wrong search.
func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	tgt := target(t, "f1")
	ck := filepath.Join(t.TempDir(), "ck.json")
	opts := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1,
		Checkpoint: ck, CheckpointEvery: 2, StopAfterRound: 4}
	rep := core.Reproduce(tgt, opts)
	if !rep.Interrupted {
		t.Fatal("setup run not interrupted")
	}

	cases := []struct {
		name string
		tgt  *core.Target
		opts core.Options
		want string
	}{
		{"wrong target", target(t, "f3"), core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}, "target"},
		{"wrong seed", tgt, core.Options{Strategy: core.FullFeedback, Seed: 2, Window: 1}, "seed"},
		{"wrong strategy", tgt, core.Options{Strategy: core.Random, Seed: 1, Window: 1}, "strategy"},
		{"wrong addressing", tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1,
			Addressing: core.AddrPath}, "addressing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := core.Resume(c.tgt, c.opts, ck)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}

	t.Run("missing checkpoint", func(t *testing.T) {
		_, err := core.Resume(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1},
			filepath.Join(t.TempDir(), "nope.json"))
		if err == nil {
			t.Fatal("resume from a missing checkpoint succeeded")
		}
	})
}

// TestResumeRejectsLegacyCheckpointVersion: legacy envelopes — version 1
// predates path-sensitive addressing and the pair fault class, version 2
// predates the partial fault class — must be rejected loudly by the
// envelope layer, never resumed into a search whose instance identities
// or occurrence counters they cannot describe. The fixtures are faithful
// copies of what those releases wrote.
func TestResumeRejectsLegacyCheckpointVersion(t *testing.T) {
	tgt := target(t, "f1")
	cases := []struct {
		fixture string
		want    string
	}{
		{"legacy_v1_checkpoint.json", "version 1, want 3"},
		{"legacy_v2_checkpoint.json", "version 2, want 3"},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			_, err := core.Resume(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1},
				filepath.Join("testdata", c.fixture))
			if err == nil {
				t.Fatalf("resume accepted the legacy checkpoint %s", c.fixture)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want a version-skew message naming both versions", err)
			}
		})
	}
}

// TestCheckpointRecordsAddressing: a path-addressed search round-trips its
// addressing mode through the checkpoint, and the restored search resumes
// without error under the same mode.
func TestCheckpointRecordsAddressing(t *testing.T) {
	tgt := target(t, "f1")
	ck := filepath.Join(t.TempDir(), "ck.json")
	opts := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1,
		Addressing: core.AddrPath, Checkpoint: ck, CheckpointEvery: 2, StopAfterRound: 4}
	rep := core.Reproduce(tgt, opts)
	if !rep.Interrupted {
		t.Fatal("setup run not interrupted")
	}

	// Resuming in the default occurrence mode must fail: the tried set was
	// recorded against path identities.
	_, err := core.Resume(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1}, ck)
	if err == nil || !strings.Contains(err.Error(), "addressing") {
		t.Fatalf("err = %v, want an addressing-mismatch error", err)
	}

	// Resuming under the recorded mode continues the search.
	resumed := core.Options{Strategy: core.FullFeedback, Seed: 1, Window: 1, Addressing: core.AddrPath}
	if _, err := core.Resume(tgt, resumed, ck); err != nil {
		t.Fatalf("resume under the recorded addressing mode: %v", err)
	}
}

// TestInterruptedTraceHasNoOutcome: the prefix property depends on an
// interrupted search never emitting an outcome event.
func TestInterruptedTraceHasNoOutcome(t *testing.T) {
	tgt := target(t, "f1")
	var mem trace.Memory
	rep := core.Reproduce(tgt, core.Options{
		Strategy: core.FullFeedback, Seed: 1, Window: 1,
		StopAfterRound: 2, Trace: &mem,
	})
	if !rep.Interrupted {
		t.Fatal("not interrupted")
	}
	for i := range mem.Events {
		if mem.Events[i].Type == trace.Outcome {
			t.Fatal("interrupted trace carries an outcome event")
		}
	}
}
