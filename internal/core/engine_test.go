package core

// White-box tests for the explorer's priority machinery.

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/logdiff"
	"anduril/internal/oracle"
)

// stubEngine builds an engine with hand-made observables, distances and
// instances, bypassing the free run.
func stubEngine(o Options) *engine {
	e := newEngine(&Target{ID: "stub"}, o.withDefaults())
	e.obs = []*observable{
		{key: logdiff.Key{Thread: "t", Msg: "alpha"}, positions: []int{100}, templates: []string{"alpha"}},
		{key: logdiff.Key{Thread: "t", Msg: "beta"}, positions: []int{200}, templates: []string{"beta"}},
	}
	dist := map[string]map[string]int{
		"s.near":  {"alpha": 2},
		"s.far":   {"alpha": 7},
		"s.beta":  {"beta": 3},
		"s.both":  {"alpha": 5, "beta": 4},
		"s.none":  {},
		"s.gamma": {"gamma": 1}, // reaches only an irrelevant template
	}
	// Sorted by id, as engine.setup leaves them.
	for _, id := range []string{"s.beta", "s.both", "s.far", "s.gamma", "s.near", "s.none"} {
		e.sites = append(e.sites, &siteState{
			id:        id,
			dists:     dist[id],
			instances: []instance{{occ: 1, alignedPos: 90}, {occ: 2, alignedPos: 195}, {occ: 3, alignedPos: 400}},
		})
	}
	return e
}

func TestComputePrioritiesMin(t *testing.T) {
	e := stubEngine(Options{})
	e.computePriorities(true, true)
	get := func(id string) *siteState {
		for _, s := range e.sites {
			if s.id == id {
				return s
			}
		}
		return nil
	}
	if got := get("s.near").f; got != 2 {
		t.Fatalf("s.near F=%v", got)
	}
	if got := get("s.both").f; got != 4 { // min(5, 4)
		t.Fatalf("s.both F=%v", got)
	}
	if got := get("s.both").bestObs; got != 1 {
		t.Fatalf("s.both bestObs=%d", got)
	}
	if !math.IsInf(get("s.none").f, 1) || !math.IsInf(get("s.gamma").f, 1) {
		t.Fatal("unreachable sites must have infinite priority")
	}

	// Feedback: deprioritizing alpha flips s.both's best observable logic.
	e.obs[1].priority = 10 // beta now expensive
	e.computePriorities(true, true)
	if got := get("s.both").f; got != 5 { // min(5+0, 4+10)
		t.Fatalf("after feedback, s.both F=%v", got)
	}
	if got := get("s.both").bestObs; got != 0 {
		t.Fatalf("after feedback, s.both bestObs=%d", got)
	}
}

func TestComputePrioritiesSumAblation(t *testing.T) {
	e := stubEngine(Options{AggregateSum: true})
	e.computePriorities(true, true)
	for _, s := range e.sites {
		if s.id == "s.both" {
			if s.f != 9 { // 5 + 4
				t.Fatalf("sum F=%v", s.f)
			}
			if s.bestObs != 1 { // nearest partial still beta (4 < 5)
				t.Fatalf("sum bestObs=%d", s.bestObs)
			}
		}
	}
}

func TestTemporalDistance(t *testing.T) {
	e := stubEngine(Options{})
	e.computePriorities(true, true)
	var near *siteState
	for _, s := range e.sites {
		if s.id == "s.near" {
			near = s
		}
	}
	// s.near's best observable is alpha at failure position 100.
	if d := e.temporalDistance(near, instance{alignedPos: 90}); d != 10 {
		t.Fatalf("T=%v", d)
	}
	if d := e.temporalDistance(near, instance{alignedPos: 400}); d != 300 {
		t.Fatalf("T=%v", d)
	}
}

func TestBestUntriedTemporalVsOrder(t *testing.T) {
	e := stubEngine(Options{})
	e.computePriorities(true, true)
	var near *siteState
	for _, s := range e.sites {
		if s.id == "s.near" {
			near = s
		}
	}
	// Temporal: occ=2 (aligned 195) is farther from alpha@100 than occ=1
	// (aligned 90, distance 10), so occ 1 wins.
	inst, ok := e.bestUntried(near, true, 0)
	if !ok || inst.occ != 1 {
		t.Fatalf("temporal best: %+v ok=%v", inst, ok)
	}
	near.tried.Add(1)
	inst, _ = e.bestUntried(near, true, 0)
	if inst.occ != 2 {
		t.Fatalf("after trying occ1: %+v", inst)
	}
	// Order mode ignores alignment: lowest untried occurrence.
	near.tried = triedSet{}
	inst, _ = e.bestUntried(near, false, 0)
	if inst.occ != 1 {
		t.Fatalf("order best: %+v", inst)
	}
	// Instance limit hides occurrences beyond the cap.
	near.tried = triedSet{}
	near.tried.Add(1)
	near.tried.Add(2)
	if _, ok := e.bestUntried(near, false, 2); ok {
		t.Fatal("limit 2 should exhaust after two occurrences")
	}
}

func TestRankedSitesStable(t *testing.T) {
	e := stubEngine(Options{})
	e.computePriorities(true, true)
	ranked := e.rankedSites()
	if ranked[0].id != "s.near" {
		t.Fatalf("rank 1: %s", ranked[0].id)
	}
	// Equal-F sites must order deterministically by id.
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].f == ranked[i].f && ranked[i-1].id > ranked[i].id {
			t.Fatalf("unstable tiebreak at %d", i)
		}
	}
	e.t.RootSite = "s.beta"
	if r := e.rootRank(ranked); r < 1 || r > len(ranked) {
		t.Fatalf("rootRank=%d", r)
	}
	e.t.RootSite = "absent"
	if r := e.rootRank(ranked); r != 0 {
		t.Fatalf("absent rootRank=%d", r)
	}
}

func TestBakedPlanComposition(t *testing.T) {
	e := stubEngine(Options{})
	if e.bakedPlan(nil) != nil {
		t.Fatal("no baked faults should mean nil plan")
	}
	e.baked = []inject.Instance{{Site: "a", Occurrence: 1}}
	plan := e.bakedPlan(inject.Exact(inject.Instance{Site: "b", Occurrence: 1}))
	rt := inject.NewRuntime(plan)
	if rt.Reach("a", inject.IO) == nil || rt.Reach("b", inject.IO) == nil {
		t.Fatal("both faults should inject")
	}
	if !e.isBaked(inject.TraceEvent{Site: "a", Occurrence: 1}) {
		t.Fatal("isBaked failed")
	}
	if e.isBaked(inject.TraceEvent{Site: "b", Occurrence: 1}) {
		t.Fatal("b is not baked")
	}
}

func TestMedianHelpers(t *testing.T) {
	rounds := []Round{
		{InitTime: 3 * time.Millisecond, RunTime: 30, InjectReqs: 5},
		{InitTime: 1 * time.Millisecond, RunTime: 10, InjectReqs: 1},
		{InitTime: 2 * time.Millisecond, RunTime: 20, InjectReqs: 3},
	}
	r := &Report{RoundLog: rounds}
	if got := r.MedianInitTime(); got != 2*time.Millisecond {
		t.Fatalf("median init: %v", got)
	}
	if got := r.MedianInjectReqs(); got != 3 {
		t.Fatalf("median reqs: %d", got)
	}
	empty := &Report{}
	if empty.MedianInitTime() != 0 || empty.MedianInjectReqs() != 0 || empty.MeanDecisionLatency() != 0 {
		t.Fatal("empty report medians should be zero")
	}
}

// Regression for the flexible-window overflow: when no candidate in the
// window occurs, the window doubles every round (§5.2.5). Unclamped, 63+
// consecutive no-injection rounds overflow int — the window goes
// non-positive, candidate selection picks nothing, and the loop falsely
// reports the fault space exhausted. The clamp caps growth at the total
// candidate-instance count, so the search keeps probing until MaxRounds.
func TestFlexibleWindowOverflowClamped(t *testing.T) {
	const maxRounds = 80 // > 63, enough to overflow without the clamp
	e := stubEngine(Options{Window: 1, MaxRounds: maxRounds})
	// An empty workload never reaches a fault site, so every round is a
	// no-injection round and the window doubles each time.
	e.t.Workload = func(env *cluster.Env) {}
	e.t.Oracle = oracle.Predicate("never", func(*cluster.Result) bool { return false })
	total := 0
	for _, s := range e.sites {
		total += len(s.instances)
	}
	e.report.CandidateInstances = total // what setup would have counted

	e.feedbackLoop(feedbackSpec{})

	if e.report.Reproduced {
		t.Fatal("nothing should reproduce")
	}
	if e.report.Rounds != maxRounds {
		t.Fatalf("stopped after %d rounds, want %d (false fault-space exhaustion)", e.report.Rounds, maxRounds)
	}
	for _, rd := range e.report.RoundLog {
		if rd.WindowSize < 1 || rd.WindowSize > total {
			t.Fatalf("round %d: window %d out of [1,%d]", rd.N, rd.WindowSize, total)
		}
	}
}

func TestGrowWindow(t *testing.T) {
	e := stubEngine(Options{})
	e.report.CandidateInstances = 18
	cases := []struct{ in, want int }{
		{1, 2}, {2, 4}, {8, 16}, {16, 18}, {18, 18}, {100, 18},
	}
	for _, c := range cases {
		if got := e.growWindow(c.in); got != c.want {
			t.Fatalf("growWindow(%d)=%d want %d", c.in, got, c.want)
		}
	}
	// Fixed-window ablation never grows.
	e.o.FixedWindow = true
	if got := e.growWindow(3); got != 3 {
		t.Fatalf("fixed window grew to %d", got)
	}
	// Degenerate: no candidate instances counted — must stay positive.
	e.o.FixedWindow = false
	e.report.CandidateInstances = 0
	if got := e.growWindow(4); got != 1 {
		t.Fatalf("growWindow with no instances = %d, want 1", got)
	}
}

// markTried must hit the indexed site and ignore unknown sites.
func TestMarkTriedIndex(t *testing.T) {
	e := stubEngine(Options{})
	e.siteIndex = make(map[string]*siteState, len(e.sites))
	for _, s := range e.sites {
		e.siteIndex[s.id] = s
	}
	e.markTried(inject.Instance{Site: "s.near", Occurrence: 2})
	e.markTried(inject.Instance{Site: "no.such.site", Occurrence: 1})
	for _, s := range e.sites {
		want := s.id == "s.near"
		if s.tried.Has(2) != want {
			t.Fatalf("site %s tried.Has(2)=%v want %v", s.id, s.tried.Has(2), want)
		}
	}
}

// Property: temporal distance is non-negative and zero exactly at an
// observable position.
func TestTemporalDistanceProperty(t *testing.T) {
	e := stubEngine(Options{})
	e.computePriorities(true, true)
	var near *siteState
	for _, s := range e.sites {
		if s.id == "s.near" {
			near = s
		}
	}
	f := func(pos uint16) bool {
		d := e.temporalDistance(near, instance{alignedPos: float64(pos)})
		if d < 0 {
			return false
		}
		if pos == 100 && d != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
