package core

// Microbenchmarks for the ranking layer: the naive full recompute + full
// re-sort per round against the incremental priority index. The workload
// models a feedback round on a mid-sized target: a handful of observables
// bumped, then one ranking. Numbers are recorded in
// BENCH_core_hotpath.json at the repo root.

import (
	"math/rand"
	"testing"
)

const (
	benchSites = 1000
	benchObs   = 200
)

// BenchmarkComputePriorities measures one full F_i recompute over every
// site — the fixed per-round cost the naive ranking pays.
func BenchmarkComputePriorities(b *testing.B) {
	e := synthEngine(benchSites, benchObs, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.computePriorities(true, true)
	}
}

// benchRanker measures one feedback round (bump a few observables, then
// rank) under the given ranker implementation.
func benchRanker(b *testing.B, naive bool) {
	e := synthEngine(benchSites, benchObs, 11)
	rk := e.newRankerNamed(true, naive)
	rk.ranked() // initial build outside the loop for both
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 4; n++ {
			k := rng.Intn(benchObs)
			e.obs[k].priority++
			rk.observableBumped(k)
		}
		rk.ranked()
	}
}

func BenchmarkRankedSites(b *testing.B) {
	b.Run("naive", func(b *testing.B) { benchRanker(b, true) })
	b.Run("indexed", func(b *testing.B) { benchRanker(b, false) })
}
