package core_test

// Path-addressing acceptance: under AddrPath every dataset failure still
// reproduces, the search visits the same rounds as the default occurrence
// mode (the two modes name the same dynamic instances, so trajectories
// are equivalent), reproduction scripts carry parseable canonical path
// addresses. That two independent runs produce byte-identical traces —
// path addresses are seed-stable, not incidental — is checked with every
// other scenario's determinism in golden_trace_test.go.

import (
	"fmt"
	"strings"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
)

// pathReproduce runs one scenario under AddrPath.
func pathReproduce(t *testing.T, sc *failures.Scenario) *core.Report {
	t.Helper()
	return core.Reproduce(target(t, sc.ID), core.Options{Seed: 1, MaxRounds: 500, Addressing: core.AddrPath})
}

// TestPathAddressingReproducesDataset: every single-fault scenario still
// reproduces under AddrPath, at the same ground-truth root site the
// default mode finds. Round-by-round trajectories are NOT asserted equal
// across modes — they legitimately diverge, and that divergence is the
// point of the refactor: trial rounds run under derived seeds, so "the
// 4th reach of this site" names different dynamic contexts in different
// runs, while a canonical path pins the free-run context wherever the
// trial's interleaving puts it. Default-mode behavior being unchanged is
// pinned separately by the golden-trajectory harness.
func TestPathAddressingReproducesDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, sc := range failures.All() {
		if sc.Searches(inject.ClassPair) {
			continue // pair member refs embed the mode; covered separately
		}
		sc := sc
		t.Run(sc.ID, func(t *testing.T) {
			rep := pathReproduce(t, sc)
			if !rep.Reproduced {
				t.Fatalf("not reproduced under path addressing in %d rounds", rep.Rounds)
			}
			// The script may name a site other than the declared ground
			// truth: path matching can surface an alternate trigger for the
			// same failure (the oracle, not the site, defines the failure).
			// It must still replay deterministically.
			tgt, err := sc.BuildTarget()
			if err != nil {
				t.Fatal(err)
			}
			if !core.Verify(tgt, *rep.Script, rep.ScriptSeed) {
				t.Fatalf("script %v does not verify", *rep.Script)
			}
			if rep.Script.Path == "" {
				t.Fatalf("script %v carries no path address", *rep.Script)
			}
			if inject.ClassOf(rep.Script.Site) == inject.ClassPartial {
				// Partial pseudo-sites are root-addressed: the path form is
				// the site with the per-run occurrence appended (channel
				// subjects may embed '>', which the path grammar reserves
				// for edges, so the address is not ParsePathAddr-parseable).
				if want := fmt.Sprintf("%s#%d", rep.Script.Site, rep.Script.Occurrence); rep.Script.Path != want {
					t.Fatalf("script path %q, want root-addressed %q", rep.Script.Path, want)
				}
			} else if inject.ClassOf(rep.Script.Site) != inject.ClassEnv {
				addr, ok := inject.ParsePathAddr(rep.Script.Path)
				if !ok {
					t.Fatalf("script path %q does not parse", rep.Script.Path)
				}
				if addr.Site != rep.Script.Site {
					t.Fatalf("script path %q terminates at %q, script site %q",
						rep.Script.Path, addr.Site, rep.Script.Site)
				}
			}
		})
	}
}

// TestPathAddressingPairScripts: the pair scenarios reproduce under
// AddrPath too, with both member references carrying canonical paths.
func TestPathAddressingPairScripts(t *testing.T) {
	for _, id := range pairIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			sc, _ := failures.ByID(id)
			rep := pathReproduce(t, sc)
			if !rep.Reproduced {
				t.Fatalf("%s not reproduced under path addressing in %d rounds", id, rep.Rounds)
			}
			if rep.Script.Site != sc.RootSite {
				t.Fatalf("%s reproduced via %v, ground truth %s", id, *rep.Script, sc.RootSite)
			}
			a, b, ok := inject.PairMembers(*rep.Script)
			if !ok {
				t.Fatalf("script %v does not decompose", *rep.Script)
			}
			for _, m := range []inject.Instance{a, b} {
				if inject.ClassOf(m.Site) == inject.ClassEnv {
					continue
				}
				if m.Path == "" || !strings.Contains(m.Path, "#") {
					t.Fatalf("member %v lacks a path address", m)
				}
				if addr, ok := inject.ParsePathAddr(m.Path); !ok || addr.Site != m.Site {
					t.Fatalf("member path %q does not parse back to site %q", m.Path, m.Site)
				}
			}
		})
	}
}
