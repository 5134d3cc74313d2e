package main

import (
	"fmt"
	"math"
	"math/rand"

	"anduril/internal/failures"
	"anduril/internal/server"
)

// search is one (failure, search seed) pair run under default options.
type search struct {
	Failure string
	Seed    int64
}

func (s search) String() string { return fmt.Sprintf("%s@%d", s.Failure, s.Seed) }

// Pool sizes. Every run of a workload executes the same multiset of
// searches or jobs, so rounds, allocations and latency quantiles are
// comparable across workload seeds and across commits; the workload seed
// fixes the order (and, for daemon, which submissions duplicate which).
const (
	sweepSeeds  = 4 // search seeds 1..4 for each sweep failure
	daemonSeeds = 2 // search seeds 1..2 for each daemon spec failure

	// dupShare is the share of daemon submissions that repeat an earlier
	// spec of the same epoch (content-addressed dedupe). It stays clear
	// of one half so that an epoch's median latency falls inside the
	// executed jobs' distribution, not on the edge between the quick
	// deduplicated answers and the executions.
	dupShare = 0.4
)

// heavySeeds is the search seeds 1..n of each heavy failure, chosen so
// that both reported percentiles fall inside a cluster of like searches,
// never on the edge between two, where they would jump between clusters
// from run to run. Sorted, a pass reads f29 ×4, f25 ×3, f30 at seed 2
// (66 rounds), then f30 at seeds 1 and 3–6 (412–474 rounds): its median,
// the 7th of 13, is the slowest f25, and the run's p75 falls about a
// third of the way up the long f30 searches.
var heavySeeds = map[string]int{"f25": 3, "f29": 4, "f30": 6}

// Nominal durations of one pass on a 2-CPU Xeon @ 2.10GHz; a run of
// --seconds s performs round(s / nominal) passes (at least one), so the
// work done is a function of the arguments, never of the machine's speed.
const (
	sweepPassSeconds  = 0.59
	heavyPassSeconds  = 6.2
	daemonEpochSecond = 1.1
)

func passes(seconds int, nominal float64) int {
	n := int(math.Round(float64(seconds) / nominal))
	if n < 1 {
		n = 1
	}
	return n
}

func sweepIDs() []string {
	var ids []string
	for _, sc := range failures.All() {
		if heavySeeds[sc.ID] == 0 {
			ids = append(ids, sc.ID)
		}
	}
	return ids
}

func heavyIDs() []string {
	var ids []string
	for _, sc := range failures.All() {
		if heavySeeds[sc.ID] > 0 {
			ids = append(ids, sc.ID)
		}
	}
	return ids
}

// pool is the cross product of failures and search seeds 1..n.
func pool(ids []string, n int) []search {
	var out []search
	for _, id := range ids {
		for s := int64(1); s <= int64(n); s++ {
			out = append(out, search{Failure: id, Seed: s})
		}
	}
	return out
}

// sweepPool is the 31 failures other than f25, f29 and f30 at seeds 1..4.
func sweepPool() []search { return pool(sweepIDs(), sweepSeeds) }

// heavyPool is the failures whose searches are dominated by per-round
// engine cost — f25 (112 rounds), f29 (16) and f30 (66–474 by seed) — at
// their heavySeeds.
func heavyPool() []search {
	var out []search
	for _, id := range heavyIDs() {
		out = append(out, pool([]string{id}, heavySeeds[id])...)
	}
	return out
}

// rng derives an independent deterministic stream for (seed, salt).
func rng(seed int64, salt uint64) *rand.Rand {
	x := uint64(seed)*0x9E3779B97F4A7C15 + salt
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// searchList is a one-at-a-time workload's inputs: n passes over the pool,
// each pass in its own seed-derived order.
func searchList(p []search, seed int64, n int) []search {
	out := make([]search, 0, len(p)*n)
	for pass := 0; pass < n; pass++ {
		r := rng(seed, uint64(pass)+1)
		for _, i := range r.Perm(len(p)) {
			out = append(out, p[i])
		}
	}
	return out
}

// daemonPool is the distinct job specs of one daemon epoch: the sweep
// failures plus f25 (checkpoint + trace-WAL lockstep over 112 rounds) at
// seeds 1..2, under the daemon's default options.
func daemonPool() []server.Spec {
	ids := append(sweepIDs(), "f25")
	var out []server.Spec
	for _, id := range ids {
		for s := int64(1); s <= daemonSeeds; s++ {
			out = append(out, server.Spec{Failure: id, Seed: s}.Normalize())
		}
	}
	return out
}

// epochList is one daemon epoch's submissions: every pool spec once in a
// seed-derived order, plus duplicates — about dupShare of all
// submissions — each placed after the spec it repeats.
func epochList(p []server.Spec, seed int64, epoch int) []server.Spec {
	r := rng(seed, 1<<32+uint64(epoch))
	list := make([]server.Spec, 0, len(p)*2)
	for _, i := range r.Perm(len(p)) {
		list = append(list, p[i])
	}
	dups := int(math.Round(float64(len(p)) * dupShare / (1 - dupShare)))
	for d := 0; d < dups; d++ {
		src := r.Intn(len(list))
		at := src + 1 + r.Intn(len(list)-src)
		list = append(list, server.Spec{})
		copy(list[at+1:], list[at:])
		list[at] = list[src]
	}
	return list
}

// daemonList is n epochs of submissions.
func daemonList(seed int64, n int) [][]server.Spec {
	p := daemonPool()
	out := make([][]server.Spec, n)
	for e := range out {
		out[e] = epochList(p, seed, e)
	}
	return out
}
