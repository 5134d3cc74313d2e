package inject

import (
	"fmt"
	"testing"
)

// TestPlanCarriesCandidateClasses: a plan carries exactly the union of
// its candidates' classes, whether the candidates are occurrence- or
// path-addressed, and a runtime executing the plan activates exactly
// those pseudo-site classes — so replaying a window of env or partial
// instances in path mode reaches the pseudo-sites it names.
func TestPlanCarriesCandidateClasses(t *testing.T) {
	site := "zk.sync.append"
	env := PseudoSiteID(EnvCrash, "zk3", "")
	partial := PseudoSiteID(PartialShortWrite, "zk.sync.append-txn", "")
	addressings := map[string]func(string) Instance{
		"occurrence": func(s string) Instance { return Instance{Site: s, Occurrence: 4} },
		"path":       func(s string) Instance { return Instance{Site: s, Occurrence: 4, Path: s + "#4"} },
	}
	for mode, inst := range addressings {
		for _, sites := range [][]string{
			{site}, {env}, {partial}, {site, env}, {site, partial}, {env, partial}, {site, env, partial},
		} {
			var insts []Instance
			var exacts []Plan
			var want ClassSet
			for _, s := range sites {
				insts = append(insts, inst(s))
				exacts = append(exacts, Exact(inst(s)))
				want |= SetOf(ClassOf(s))
			}
			plans := map[string]Plan{"window": Window(insts), "multi": Multi(exacts...)}
			if len(insts) == 1 {
				plans["exact"] = exacts[0]
			}
			if len(insts) == 2 {
				plans["pair-window"] = PairWindow([][2]Instance{{insts[0], insts[1]}})
			}
			for name, p := range plans {
				t.Run(fmt.Sprintf("%s/%s/%v", mode, name, want.Names()), func(t *testing.T) {
					c := planCarries(p)
					if c.classes != want {
						t.Fatalf("carries classes %v, candidates are %v", c.classes.Names(), want.Names())
					}
					if c.paths != (mode == "path") {
						t.Fatalf("carries paths %v in %s mode", c.paths, mode)
					}
					r := NewRuntime(p)
					for _, cl := range []Class{ClassEnv, ClassPartial} {
						if r.Active(cl) != want.Has(cl) {
							t.Fatalf("runtime activates %s: %v, candidates carry it: %v", cl, r.Active(cl), want.Has(cl))
						}
					}
				})
			}
		}
	}
}

// TestPseudoSiteRoundTrip: every kind's site ID parses back to the kind
// and subject it was built from, renders its marker, and a pair subject
// is order-insensitive.
func TestPseudoSiteRoundTrip(t *testing.T) {
	for p := Pseudo(0); p < numPseudo; p++ {
		f := PseudoFault{Pseudo: p, Subject: "a.x"}
		if pseudoTable[p].shape.sep() != "" {
			f.Subject, f.Peer = "n1", "n2"
		}
		site := f.Site()
		got, ok := ParsePseudoSite(site)
		if !ok || got != f {
			t.Fatalf("%s: ParsePseudoSite(%q) = %+v, %v; want %+v", p.Name(), site, got, ok, f)
		}
		if ClassOf(site) != p.Class() {
			t.Fatalf("%s: ClassOf(%q) = %v, want %v", p.Name(), site, ClassOf(site), p.Class())
		}
		if f.Marker() == "" {
			t.Fatalf("%s: no marker for %q", p.Name(), site)
		}
	}
	if a, b := PseudoSiteID(EnvPartition, "n2", "n1"), PseudoSiteID(EnvPartition, "n1", "n2"); a != b {
		t.Fatalf("partition IDs differ by subject order: %q vs %q", a, b)
	}
	for _, bad := range []string{"env/crash/", "env/partition/n1", "env/msg-drop/n1>", "partial/net/short-write/x", "partial/disk/nope/x", "env/nope/n1"} {
		if _, ok := ParsePseudoSite(bad); ok {
			t.Fatalf("malformed %q parsed", bad)
		}
	}
}

// TestClassSetNames: the class set renders alphabetically and parses
// back, nil names the site-only space, and unknown names are ignored.
func TestClassSetNames(t *testing.T) {
	all := SetOf(ClassSite, ClassEnv, ClassPartial, ClassPair)
	if got := fmt.Sprint(all.Names()); got != "[env pair partial site]" {
		t.Fatalf("Names() = %s", got)
	}
	if ParseClasses(all.Names()) != all {
		t.Fatal("ParseClasses does not invert Names")
	}
	if ParseClasses(nil) != SetOf(ClassSite) {
		t.Fatal("nil classes must mean site-only")
	}
	if ParseClasses([]string{"env", "bogus"}) != SetOf(ClassEnv) {
		t.Fatal("unknown class names must be ignored")
	}
}
