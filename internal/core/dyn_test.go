package core_test

// End-to-end regressions for the dyn anti-entropy scenarios (f26–f29) —
// feedback-driven reproduction finds the declared root cause (their
// traces are golden-pinned in golden_trace_test.go) — and the proofs
// that wider fault spaces leave the site search alone: registering the
// dyn target changes nothing about the f1–f25 search trajectories
// (proved against a golden generated before dyn existed), and enabling
// env or partial enumeration changes nothing about the f1–f22 searches.
//
// The trajectory golden (site_trajectories.golden) pins the pre-dyn
// behavior of f1–f25; regenerate it only when the explorer itself
// changes, never to absorb a dyn-side effect.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
)

var dynIDs = []string{"f26", "f27", "f28", "f29"}

// TestDynScenariosReproduceEndToEnd: the full feedback workflow finds the
// declared ground-truth root cause of every dyn scenario and the script
// verifies deterministically.
func TestDynScenariosReproduceEndToEnd(t *testing.T) {
	for _, id := range dynIDs {
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
			if !core.Verify(tgt, *rep.Script, rep.ScriptSeed) {
				t.Fatalf("%s: script %v does not verify", id, *rep.Script)
			}
		})
	}
}

// trajectory renders one scenario's search trajectory in the fixed format
// shared with the golden generator: every deterministic per-round datum,
// nothing wall-clock dependent.
func trajectory(sc *failures.Scenario, rep *core.Report) string {
	var b strings.Builder
	script := "none"
	if rep.Script != nil {
		script = fmt.Sprintf("%s#%d", rep.Script.Site, rep.Script.Occurrence)
	}
	fmt.Fprintf(&b, "%s reproduced=%v rounds=%d script=%s\n", sc.ID, rep.Reproduced, rep.Rounds, script)
	for _, rd := range rep.RoundLog {
		inj := "none"
		if rd.Injected != nil {
			inj = fmt.Sprintf("%s#%d", rd.Injected.Site, rd.Injected.Occurrence)
		}
		fmt.Fprintf(&b, "round %d inj=%s sat=%v rank=%d missing=%d window=%d\n",
			rd.N, inj, rd.Satisfied, rd.RootRank, rd.MissingObs, rd.WindowSize)
	}
	return b.String()
}

const trajectoryGolden = "testdata/site_trajectories.golden"

// TestSiteSearchUnchangedByDynEnumeration: the f1–f25 search trajectories
// must be byte-equal to the golden captured before the dyn target and its
// scenarios existed — registering more scenarios and target systems must
// not perturb any other search. The pair-class scenarios (f30–f31) and
// partial-class scenarios (f32–f34) postdate the golden and search
// different spaces, so they are excluded like the dyn ones.
func TestSiteSearchUnchangedByDynEnumeration(t *testing.T) {
	var b strings.Builder
	for _, sc := range failures.All() {
		if sc.System == "dyn" || sc.Searches(inject.ClassPair) || sc.Searches(inject.ClassPartial) {
			continue
		}
		tgt, err := sc.BuildTarget()
		if err != nil {
			t.Fatalf("%s: %v", sc.ID, err)
		}
		rep := core.Reproduce(tgt, core.Options{Seed: 1, MaxRounds: 500})
		b.WriteString(trajectory(sc, rep))
	}
	got := b.String()
	want, err := os.ReadFile(trajectoryGolden)
	if err != nil {
		t.Fatalf("read trajectory golden: %v", err)
	}
	if got != string(want) {
		t.Fatal("f1–f25 search trajectories changed with the dyn target registered; diff the golden to locate the drift")
	}
}

// roundSummary compresses a report to the fields that define the search
// trajectory — what was injected when, with which window, and the verdict.
func roundSummary(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "reproduced=%v rounds=%d script=%v seed=%d\n",
		rep.Reproduced, rep.Rounds, rep.Script, rep.ScriptSeed)
	for _, rd := range rep.RoundLog {
		fmt.Fprintf(&b, "r%d inj=%v sat=%v w=%d\n", rd.N, rd.Injected, rd.Satisfied, rd.WindowSize)
	}
	return b.String()
}

// siteSearchUnchangedBy is the compatibility acceptance criterion of a
// pseudo-site class: turning its enumeration on for the paper's 22
// site-rooted failures must not perturb the site search — same rounds,
// same injections, same windows, same script. The class's instances
// enter the window only after every site-class instance has been tried,
// and these searches all conclude before that point.
func siteSearchUnchangedBy(t *testing.T, class inject.Class) {
	for _, s := range failures.SiteDataset() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			tgt := target(t, s.ID)
			base := core.Reproduce(tgt, core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 500})
			wider := core.Reproduce(tgt, core.Options{
				Strategy: core.FullFeedback, Seed: 1, MaxRounds: 500,
				FaultClasses: []string{core.ClassSite, class.String()},
			})
			if !base.Reproduced {
				t.Fatalf("%s baseline not reproduced", s.ID)
			}
			if wider.EnvRooted || wider.PartialRooted {
				t.Fatalf("%s %s-rooted under combined classes: %v", s.ID, class, wider.Script)
			}
			if a, b := roundSummary(base), roundSummary(wider); a != b {
				t.Fatalf("%s search trajectory changed with %s enumeration:\n--- site-only\n%s--- site+%s\n%s", s.ID, class, a, class, b)
			}
		})
	}
}

func TestSiteSearchUnchangedByEnvEnumeration(t *testing.T) {
	siteSearchUnchangedBy(t, inject.ClassEnv)
}

func TestSiteSearchUnchangedByPartialEnumeration(t *testing.T) {
	siteSearchUnchangedBy(t, inject.ClassPartial)
}
