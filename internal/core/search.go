package core

// Search is the narrow surface a Strategy explores through. It wraps the
// unexported engine after the free run and setup have completed: the
// candidate fault space is fixed, the observables are extracted, and the
// strategy decides what to inject each round.
//
// Feedback-family strategies drive the full Algorithm 2 loop internally;
// enumerative strategies build an injection queue from the accessors here
// and hand it to Enumerate. External packages can register their own
// strategies via RegisterStrategy and get the identical surface.

import (
	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/logging"
)

// Search exposes the prepared fault-injection search to a Strategy
// implementation.
type Search struct {
	e    *engine
	free *cluster.Result
}

// Options returns the options for this run (read-only copy).
func (s *Search) Options() Options { return s.e.o }

// FreeCounts returns the per-site dynamic occurrence counts observed in
// the free run — the whole dynamic fault space, including sites pruned
// from the candidate set by the causal graph.
func (s *Search) FreeCounts() map[string]int {
	out := make(map[string]int, len(s.free.Counts))
	for k, v := range s.free.Counts {
		out[k] = v
	}
	return out
}

// FailureLog returns the target failure log the search tries to reproduce.
func (s *Search) FailureLog() []logging.Entry { return s.e.t.FailureLog }

// Candidates returns every candidate fault instance after causal-graph
// pruning, in deterministic (site id, occurrence) order. Pair
// pseudo-sites are excluded: the enumerative baselines model published
// single-fault injectors, and a pair candidate needs the feedback loop's
// pair-plan machinery to execute.
func (s *Search) Candidates() []inject.Instance {
	var out []inject.Instance
	for _, st := range s.e.sites {
		if st.class == inject.ClassPair {
			continue
		}
		for _, inst := range st.instances {
			out = append(out, candidateFor(st, inst))
		}
	}
	return out
}

// Enumerate runs the shared single-injection loop over a fixed queue: one
// candidate per round, in order, until the oracle is satisfied, the queue
// is exhausted, or the round cap is hit.
func (s *Search) Enumerate(queue []inject.Instance) { s.e.enumerativeLoop(queue) }
