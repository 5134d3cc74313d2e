package core

// Site priorities F_i = min_k (L_{i,k} + I_k) (§5.2.4) and the ranking
// over them. indexRanker is the incremental priority index: it tracks
// which sites are dirty (their F_i may have changed because a feedback
// update bumped an observable they reach) and on the next ranking
// re-scores only those, merging them back into the maintained order. It
// produces the identical total order — (F_i, site id) ascending, with
// unique ids making the order strict — as re-scoring every site and
// fully re-sorting each round, the paper's algorithm as literally
// written; the equivalence tests pin traces, root-rank trajectories and
// golden files byte-identical between the two.

import (
	"math"
	"sort"

	"anduril/internal/inject"
)

// markerMatchedDist scores a pseudo-site against an observable that IS
// the site's own injection marker: the production log recorded the
// event itself ("env: message nn>dn1 delayed" names the delay channel
// directly, modulo sanitized digits). Such evidence outranks every
// synthetic class distance (see the inject pseudo-site table), so a
// failure whose log carries the marker is searched marker-first.
const markerMatchedDist = 1

// computePriorities evaluates F_i = min_k (L_{i,k} + I_k) for every site
// (§5.2.4), with the distance and feedback terms toggled per strategy.
func (e *engine) computePriorities(useDistance, useFeedback bool) {
	e.sumBest = nil
	for _, s := range e.sites {
		e.rescoreSite(s, useDistance, useFeedback)
	}
}

// distance is L_{i,k}, the spatial distance from the site to one
// observable (+Inf when unreachable):
//
//   - an error-return site: the closest causal-graph template distance;
//   - a pseudo-site: the kind's synthetic distance standing in for every
//     L_{i,k}, so feedback adjustments flow into it exactly as into
//     error-return sites — or markerMatchedDist when the observable is
//     the site's own injection marker;
//   - a pair: the closer member's distance, so a feedback bump on an
//     observable either member reaches flows into the pair's priority
//     exactly as it does into the member's.
func (s *siteState) distance(o *observable) float64 {
	switch s.class {
	case inject.ClassSite:
		l := math.Inf(1)
		for _, tmpl := range o.templates {
			if d, ok := s.dists[tmpl]; ok && float64(d) < l {
				l = float64(d)
			}
		}
		return l
	case inject.ClassPair:
		return math.Min(s.members[0].distance(o), s.members[1].distance(o))
	default:
		if s.marker != "" && o.key.Msg == s.marker {
			return markerMatchedDist
		}
		return s.kind.Distance()
	}
}

// rescoreSite recomputes one site's F_i and best observable from scratch.
func (e *engine) rescoreSite(s *siteState, useDistance, useFeedback bool) {
	if e.sumBest != nil {
		delete(e.sumBest, s.id)
	}
	s.f = math.Inf(1)
	s.bestObs = -1
	for k, o := range e.obs {
		l := s.distance(o)
		if math.IsInf(l, 1) {
			continue
		}
		val := 0.0
		if useDistance {
			val += l
		}
		if useFeedback {
			val += float64(o.priority)
		}
		if e.o.AggregateSum {
			// Ablation: sum of partial priorities instead of min. The
			// best observable is still the closest one.
			if math.IsInf(s.f, 1) {
				s.f = 0
			}
			s.f += val
			if s.bestObs < 0 || val < e.bestVal(s) {
				s.bestObs = k
				e.setBestVal(s, val)
			}
			continue
		}
		if val < s.f {
			s.f = val
			s.bestObs = k
		}
	}
}

// bestVal bookkeeping for the sum-aggregation ablation: remembers the
// smallest partial priority so bestObs stays the nearest observable.
func (e *engine) bestVal(s *siteState) float64 {
	if e.sumBest == nil {
		return math.Inf(1)
	}
	v, ok := e.sumBest[s.id]
	if !ok {
		return math.Inf(1)
	}
	return v
}

func (e *engine) setBestVal(s *siteState, v float64) {
	if e.sumBest == nil {
		e.sumBest = map[string]float64{}
	}
	e.sumBest[s.id] = v
}

// siteLess is the ranking order: F ascending, site id as tiebreak. Site
// ids are unique, so this is a strict total order — any correct sort or
// merge yields one identical ranking.
func siteLess(a, b *siteState) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.id < b.id
}

// siteSorter sorts sites by (F, id). The concrete sort.Interface avoids
// the closure and reflection-based swapper sort.Slice allocates per call;
// the order is a strict total one, so any sorting algorithm yields the
// identical ranking.
type siteSorter []*siteState

func (s siteSorter) Len() int           { return len(s) }
func (s siteSorter) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s siteSorter) Less(i, j int) bool { return siteLess(s[i], s[j]) }

// rankedSites returns sites ordered by F ascending (name as tiebreak),
// reusing the engine's ranking buffer. The result is valid until the next
// rankedSites call on the same engine.
func (e *engine) rankedSites() []*siteState {
	if cap(e.rankedBuf) < len(e.sites) {
		e.rankedBuf = make([]*siteState, len(e.sites))
	}
	out := e.rankedBuf[:len(e.sites)]
	copy(out, e.sites)
	sort.Sort(siteSorter(out))
	return out
}

// rootRank finds the 1-based rank of the ground-truth site, for Figure 6.
func (e *engine) rootRank(ranked []*siteState) int {
	if e.t.RootSite == "" {
		return 0
	}
	for i, s := range ranked {
		if s.id == e.t.RootSite {
			return i + 1
		}
	}
	return 0
}

// ranker maintains the site ranking across feedback updates. ranked()
// returns the sites in (F, id) order; the returned slice is read-only and
// valid until the next observableBumped/ranked call. observableBumped
// tells the ranker that observable k's priority I_k changed, so sites
// reaching k must be re-scored before the next ranking.
type ranker interface {
	ranked() []*siteState
	observableBumped(k int)
}

// newRanker picks the ranking implementation for this run: the
// engine's rankerFor override (tests and benchmarks), else the
// incremental index.
func (e *engine) newRanker(useFeedback bool) ranker {
	if e.rankerFor != nil {
		return e.rankerFor(e, useFeedback)
	}
	return &indexRanker{e: e, useFeedback: useFeedback}
}

// indexRanker is the incremental priority index. It builds the full
// ranking once, plus a reverse index observable -> sites reaching it;
// afterwards each feedback bump marks only the reaching sites dirty, and
// the next ranked() call re-scores the dirty set and merges it back into
// the sorted order: O(D log D + N) per updated round instead of the naive
// O(N·K·T + N log N), and O(1) for rounds with no feedback change.
type indexRanker struct {
	e           *engine
	useFeedback bool

	obsSites [][]*siteState // k -> sites with a finite L_{i,k}
	order    []*siteState   // current ranking, (F, id) ascending
	dirty    []*siteState   // sites whose F may have changed
	dirtySet map[*siteState]bool
	built    bool

	// keepBuf and spare are reused across updates: keepBuf collects the
	// clean prefix of the old order, spare receives the merge, and the old
	// order's backing array becomes the next update's spare. Each round's
	// re-rank therefore allocates nothing once the buffers reach steady
	// size.
	keepBuf []*siteState
	spare   []*siteState
}

func (r *indexRanker) build() {
	e := r.e
	e.computePriorities(true, r.useFeedback)
	// Copy out of the engine's shared ranking buffer: order is long-lived.
	r.order = append([]*siteState(nil), e.rankedSites()...)
	r.obsSites = make([][]*siteState, len(e.obs))
	// A site is dirtied by a bump on any observable it reaches: through
	// the causal graph, through either pair member, or — for a
	// pseudo-site's synthetic distance — every observable.
	for _, s := range e.sites {
		for k, o := range e.obs {
			if !math.IsInf(s.distance(o), 1) {
				r.obsSites[k] = append(r.obsSites[k], s)
			}
		}
	}
	r.dirtySet = make(map[*siteState]bool)
	r.built = true
}

func (r *indexRanker) observableBumped(k int) {
	if !r.built {
		return // first ranked() builds everything from current priorities
	}
	for _, s := range r.obsSites[k] {
		if !r.dirtySet[s] {
			r.dirtySet[s] = true
			r.dirty = append(r.dirty, s)
		}
	}
}

func (r *indexRanker) ranked() []*siteState {
	if !r.built {
		r.build()
		return r.order
	}
	if len(r.dirty) == 0 {
		return r.order
	}
	for _, s := range r.dirty {
		r.e.rescoreSite(s, true, r.useFeedback)
	}
	keep := r.keepBuf[:0]
	for _, s := range r.order {
		if !r.dirtySet[s] {
			keep = append(keep, s)
		}
	}
	r.keepBuf = keep
	sort.Sort(siteSorter(r.dirty))
	merged := mergeRanked(r.spare[:0], keep, r.dirty)
	r.spare = r.order[:0]
	r.order = merged
	r.dirty = r.dirty[:0]
	for s := range r.dirtySet {
		delete(r.dirtySet, s)
	}
	return r.order
}

// mergeRanked merges two (F, id)-sorted site lists into dst.
func mergeRanked(dst, a, b []*siteState) []*siteState {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if siteLess(a[i], b[j]) {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
