package core

// Fault-instance selection (§5.2.3-§5.2.5): temporal distances, per-site
// best-untried choice, the multiply-feedback pair ranking, and the
// flexible-window growth rule.

import (
	"math"
	"sort"

	"anduril/internal/inject"
)

// temporalDistance computes T_{i,j,k} for an instance against the site's
// chosen observable: the number of log messages between the instance's
// aligned position and the observable on the failure timeline (§5.2.3).
//
// Pair instances are scored member-wise instead: each member contributes
// its own distance to whichever relevant observable is nearest to IT, and
// the pair's T is the sum. Scoring only the combined position (the later
// member) would leave the earlier fault unconstrained — hundreds of
// combinations tie and the sweep degenerates to enumeration order —
// whereas both faults of a real combined failure land near evidence of
// their own effect.
func (e *engine) temporalDistance(s *siteState, inst instance) float64 {
	if s.bestObs < 0 {
		return inst.alignedPos
	}
	if s.class == inject.ClassPair {
		return inst.pairT
	}
	best := math.Inf(1)
	for _, p := range e.obs[s.bestObs].positions {
		d := math.Abs(inst.alignedPos - float64(p))
		if d < best {
			best = d
		}
	}
	return best
}

// nearestObs is the distance from an aligned position to the closest
// relevant observable on the failure timeline, over ALL observables: pair
// members routinely explain different log lines, so clamping both to the
// site's single chosen observable would mis-rank every cross pair.
func (e *engine) nearestObs(pos float64) float64 {
	best := math.Inf(1)
	for _, o := range e.obs {
		for _, p := range o.positions {
			d := math.Abs(pos - float64(p))
			if d < best {
				best = d
			}
		}
	}
	return best
}

// bestUntried returns the site's highest-priority untried instance.
func (e *engine) bestUntried(s *siteState, useTemporal bool, limit int) (instance, bool) {
	bestScore := math.Inf(1)
	var best instance
	found := false
	for i, inst := range s.instances {
		if limit > 0 && i >= limit {
			break
		}
		if s.tried.Has(inst.occ) {
			continue
		}
		score := float64(inst.occ)
		if useTemporal {
			score = e.temporalDistance(s, inst)
		}
		if score < bestScore {
			bestScore = score
			best = inst
			found = true
		}
	}
	return best, found
}

// candidateFor renders a selected instance as the plan-facing candidate:
// pair sites hand out their precomputed pair Instance (site, occurrence
// AND member references), everything else a (site, occurrence) pair plus
// the canonical path under path addressing.
func candidateFor(s *siteState, inst instance) inject.Instance {
	if s.class == inject.ClassPair {
		return s.pairInsts[inst.occ-1]
	}
	return inject.Instance{Site: s.id, Occurrence: inst.occ, Path: inst.path}
}

// fillWindow selects the round's candidate window from the ranked
// sites: the best untried instance of each site, in ranking order,
// until the window is full. Selection is one pass per enabled fault
// class in window order — error-return sites, then env pseudo-sites,
// then partial pseudo-sites, then pairs — and a class is admitted only
// when no untried instance of an earlier class can be selected at all,
// so enabling a wider class never changes which instances the narrower
// search injects: each class runs to exhaustion in its exact original
// order before the next space opens. A window is therefore homogeneous
// in class, which is what lets the round build one PairPlan for pair
// windows and one ordinary window plan otherwise.
func (e *engine) fillWindow(ranked []*siteState, window int, useTemporal bool, limit int) []inject.Instance {
	candidates := e.candBuf[:0]
	for c := inject.Class(0); c < inject.NumClasses && len(candidates) == 0; c++ {
		if !e.classes.Has(c) {
			continue
		}
		for _, s := range ranked {
			if len(candidates) >= window {
				break
			}
			if s.class != c {
				continue
			}
			if inst, ok := e.bestUntried(s, useTemporal, limit); ok {
				candidates = append(candidates, candidateFor(s, inst))
			}
		}
	}
	e.candBuf = candidates
	return candidates
}

// multiplyCandidates ranks all untried (site, instance) pairs by the
// product (F_i+1) x (T_{i,j}+1) — the §8.3 "multiply feedback" variant that
// replaces the two-level selection.
func (e *engine) multiplyCandidates(ranked []*siteState, window int) []inject.Instance {
	pairs := e.pairBuf[:0]
	for _, s := range ranked {
		if math.IsInf(s.f, 1) {
			continue
		}
		if s.class == inject.ClassPair {
			// The multiply ablation ranks single-fault instances only: a
			// pair candidate needs its own plan shape, and mixing the two
			// in one window would make the round's plan ambiguous.
			continue
		}
		for _, inst := range s.instances {
			if s.tried.Has(inst.occ) {
				continue
			}
			t := e.temporalDistance(s, inst)
			pairs = append(pairs, scoredPair{
				inst:  candidateFor(s, inst),
				score: (s.f + 1) * (t + 1),
			})
		}
	}
	e.pairBuf = pairs
	sort.Sort(pairSorter(pairs))
	if len(pairs) > window {
		pairs = pairs[:window]
	}
	out := e.candBuf[:0]
	for _, p := range pairs {
		out = append(out, p.inst)
	}
	e.candBuf = out
	return out
}

// scoredPair is a (site, occurrence) candidate with its multiply-feedback
// score.
type scoredPair struct {
	inst  inject.Instance
	score float64
}

// pairSorter orders pairs by (score, site, occurrence) — strict and total,
// since (site, occurrence) is unique — without sort.Slice's per-call
// allocations.
type pairSorter []scoredPair

func (s pairSorter) Len() int      { return len(s) }
func (s pairSorter) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s pairSorter) Less(i, j int) bool {
	if s[i].score != s[j].score {
		return s[i].score < s[j].score
	}
	if s[i].inst.Site != s[j].inst.Site {
		return s[i].inst.Site < s[j].inst.Site
	}
	return s[i].inst.Occurrence < s[j].inst.Occurrence
}

// growWindow doubles the flexible window (§5.2.5), clamped to the total
// candidate-instance count: a window wider than the whole fault space
// selects nothing extra, and unclamped doubling overflows int after ~62
// consecutive no-injection rounds — the window goes non-positive, the
// candidate loop selects nothing, and the search falsely reports the
// fault space exhausted.
func (e *engine) growWindow(window int) int {
	if e.o.FixedWindow {
		return window
	}
	max := e.report.CandidateInstances
	// While untried site-class instances remain, the window only ever
	// holds site candidates (see fillWindow), so it clamps to the
	// site-class count — with env enumeration enabled this keeps the
	// growth sequence identical to a site-only run. Once the site space
	// is exhausted the env instances set the bound.
	if e.triedSite < e.instSite {
		max = e.instSite
	}
	if max < 1 {
		max = 1
	}
	if window >= max {
		return max
	}
	window *= 2
	if window > max || window <= 0 {
		window = max
	}
	return window
}
