package core

import "anduril/internal/inject"

// ReproduceNaiveRanking is Reproduce with the naive reference ranker in
// place of the incremental priority index.
func ReproduceNaiveRanking(t *Target, opts Options) *Report {
	e := newEngine(t, opts.withDefaults())
	e.rankerFor = func(e *engine, useFeedback bool) ranker {
		return &naiveRanker{e: e, useFeedback: useFeedback}
	}
	return e.run()
}

// PairTemporalDistances runs the free run and setup of t under opts and
// returns, for every pair instance in enumeration order, the temporal
// distance stored at setup beside the member-wise sum
// nearestObs(memberPos[0]) + nearestObs(memberPos[1]) recomputed from the
// observables.
func PairTemporalDistances(t *Target, opts Options) (stored, recomputed []float64, err error) {
	e := newEngine(t, opts.withDefaults())
	if err := e.prepare(); err != nil {
		return nil, nil, err
	}
	for _, s := range e.sites {
		if s.class != inject.ClassPair {
			continue
		}
		for _, inst := range s.instances {
			stored = append(stored, inst.pairT)
			recomputed = append(recomputed, e.nearestObs(inst.memberPos[0])+e.nearestObs(inst.memberPos[1]))
		}
	}
	return stored, recomputed, nil
}
