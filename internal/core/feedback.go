package core

// The priority-driven exploration loop shared by ANDURIL and its ablation
// variants (§5.2, Algorithm 2): rank sites, inject the flexible window's
// best candidate, and feed unsuccessful rounds back into the observable
// priorities.

import (
	"time"

	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/logdiff"
	"anduril/internal/trace"
)

// feedbackSpec fixes the design-point of one feedback-family strategy.
// The five such rows of the strategy table differ only in these toggles;
// the ablation knobs in Options (TemporalByOrder etc.) still apply on top.
type feedbackSpec struct {
	useFeedback bool // apply Algorithm 2 priority adjustments
	useTemporal bool // rank instances by temporal distance T_{i,j,k}
	multiply    bool // §8.3 multiply-feedback pair ranking
	limited     bool // cap instances per site at instanceLimit
}

// instanceLimit is the per-site instance cap of the limited variants
// (§8.3).
const instanceLimit = 3

// feedbackLoop is the priority-driven exploration shared by ANDURIL and its
// ablation variants.
func (e *engine) feedbackLoop(spec feedbackSpec) {
	useFeedback := spec.useFeedback
	useTemporal := spec.useTemporal && !e.o.TemporalByOrder
	limit := 0
	if spec.limited {
		limit = instanceLimit
	}
	rk := e.newRanker(useFeedback)

	window := e.o.Window
	if e.resume != nil {
		window = e.resumeWindow
	}
	for round := e.startRound + 1; round <= e.o.MaxRounds; round++ {
		if e.interrupted(round) {
			e.forceCheckpoint(round-1, window)
			return
		}
		initStart := time.Now()
		ranked := rk.ranked()
		rootRank := 0
		if e.o.TrackRank {
			rootRank = e.rootRank(ranked)
		}

		if e.tracing() {
			rank := rootRank
			if !e.o.TrackRank {
				rank = e.rootRank(ranked)
			}
			top := ranked
			if len(top) > trace.TopK {
				top = top[:trace.TopK]
			}
			snap := make([]trace.SiteRank, len(top))
			for i, s := range top {
				sr := trace.SiteRank{Site: s.id, F: trace.Float(s.f), Tried: s.tried.Len()}
				if s.bestObs >= 0 {
					sr.BestObs = obsLabel(e.obs[s.bestObs])
				}
				snap[i] = sr
			}
			e.emit(&trace.Event{
				Type: trace.RoundStart, Round: round, Window: window,
				RootRank: rank, Top: snap,
			})
		}

		var candidates []inject.Instance
		if spec.multiply {
			candidates = e.multiplyCandidates(ranked, window)
		} else {
			candidates = e.fillWindow(ranked, window, useTemporal, limit)
		}
		if len(candidates) == 0 {
			return // fault space exhausted: cannot reproduce (step 5)
		}
		initTime := time.Since(initStart)
		e.traceDecision(round, window, candidates)

		a := e.attemptRound(round, e.roundPlan(candidates), initTime, window, rootRank)
		if isInterrupted(a.err) {
			// Cancelled mid-trial: the round is not recorded. The forced
			// checkpoint persists the state through round-1, so resume
			// re-executes only this round.
			e.report.Interrupted = true
			e.forceCheckpoint(round-1, window)
			return
		}
		res, rd := a.res, a.rd
		if a.err != nil {
			e.recordInconclusive(a, window)
			continue
		}
		if rd.Injected == nil {
			// Nothing in the window occurred this round: widen it (§5.2.5).
			grown := e.growWindow(window)
			if e.tracing() {
				e.emit(&trace.Event{
					Type: trace.WindowGrow, Round: round, From: window, To: grown,
					Clamped: !e.o.FixedWindow && grown < window*2,
				})
			}
			window = grown
			e.recordRound(rd)
			e.maybeCheckpoint(round, window)
			continue
		}
		e.markTried(*rd.Injected)

		if a.sat {
			e.traceInjected(round, *rd.Injected, true)
			e.reproduced(rd, a.seed)
			return
		}

		// Combined-log mitigation (§6): re-run the same injection under
		// extra seeds; crucial observables missing only probabilistically
		// then show up in at least one of the runs. A failed extra run is
		// simply dropped from the combined logs — the round's primary run
		// already succeeded, so the round stays judgeable.
		results := []*cluster.Result{res}
		for extra := 1; extra < e.o.RunsPerRound; extra++ {
			seed := e.o.Seed + int64(e.o.MaxRounds) + int64(round*e.o.RunsPerRound+extra)
			res2, err2 := e.trial(seed, e.bakedPlan(inject.Exact(*rd.Injected)), false)
			if err2 != nil {
				if isInterrupted(err2) {
					e.report.Interrupted = true
					return
				}
				continue
			}
			sat2, serr := e.safeSatisfied(res2)
			if serr != nil {
				continue
			}
			if sat2 {
				e.traceInjected(round, *rd.Injected, true)
				e.reproduced(rd, seed)
				return
			}
			results = append(results, res2)
		}
		e.traceInjected(round, *rd.Injected, false)

		missing := e.missingIn(results)
		missingCount := 0
		var bumped []trace.ObsPriority
		for i, still := range missing {
			if still {
				missingCount++
			} else if useFeedback {
				e.obs[i].priority += e.o.Adjust
				rk.observableBumped(i)
				if e.tracing() {
					bumped = append(bumped, trace.ObsPriority{
						Obs: obsLabel(e.obs[i]), Priority: e.obs[i].priority,
					})
				}
			}
		}
		rd.MissingObs = missingCount
		e.traceFeedback(rk, round, missingCount, bumped, useFeedback)
		if e.report.BestPartial == nil || missingCount < e.report.BestPartialMissing {
			e.report.BestPartial = rd.Injected
			e.report.BestPartialMissing = missingCount
		}
		e.recordRound(rd)
		e.maybeCheckpoint(round, window)
	}
}

// roundPlan builds the round's injection plan from the selected window.
// A pair window (homogeneous by fillWindow construction) arms a PairPlan
// in rank order and publishes the window so tryOnce can map the plan's
// commit index back to the canonical pair Instance; every other window
// is the ordinary first-reach-wins plan.
func (e *engine) roundPlan(candidates []inject.Instance) inject.Plan {
	if len(candidates) == 0 || inject.ClassOf(candidates[0].Site) != inject.ClassPair {
		return inject.Window(candidates)
	}
	pairs := make([][2]inject.Instance, len(candidates))
	for i, c := range candidates {
		a, b, _ := inject.PairMembers(c)
		pairs[i] = [2]inject.Instance{a, b}
	}
	e.pairWindow = append(e.pairWindow[:0], candidates...)
	return inject.PairWindow(pairs)
}

// traceFeedback records an Algorithm 2 update: the observables whose I_k
// was adjusted and the resulting F_i deltas. The deltas need next round's
// priorities; forcing the ranker to apply its pending re-scores here is
// idempotent (the next round's ranked() returns the same values) and only
// happens when a sink is attached.
func (e *engine) traceFeedback(rk ranker, round, missing int, bumped []trace.ObsPriority, useFeedback bool) {
	if !e.tracing() {
		return
	}
	ev := &trace.Event{Type: trace.Feedback, Round: round, Missing: missing, Bumped: bumped}
	if useFeedback && len(bumped) > 0 {
		before := make(map[string]float64, len(e.sites))
		for _, s := range e.sites {
			before[s.id] = s.f
		}
		rk.ranked()
		for _, s := range e.sites {
			if s.f != before[s.id] {
				ev.Deltas = append(ev.Deltas, trace.SiteDelta{
					Site: s.id, Before: trace.Float(before[s.id]), After: trace.Float(s.f),
				})
			}
		}
	}
	e.emit(ev)
}

// missingIn reports, per relevant observable, whether it is missing from
// ALL of the given run logs (Algorithm 2's COMPARE over combined logs).
func (e *engine) missingIn(results []*cluster.Result) []bool {
	if cap(e.missBuf) < len(e.obs) {
		e.missBuf = make([]bool, len(e.obs))
	}
	miss := e.missBuf[:len(e.obs)]
	for i := range miss {
		miss[i] = true
	}
	for _, res := range results {
		m := logdiff.Compare(e.flatten(res.Entries), e.flatten(e.t.FailureLog)).Missing
		for i, o := range e.obs {
			if _, still := m[o.key]; !still {
				miss[i] = false
			}
		}
	}
	return miss
}
