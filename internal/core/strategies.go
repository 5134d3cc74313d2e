package core

// The strategy table. Every exploration algorithm — complete ANDURIL,
// the §8.3 ablation variants, and the §8.4 comparison systems — is one
// row, in Table 2 column order. A feedback-family row runs the
// Algorithm 2 loop at its feedbackSpec design point; an enumerative row
// builds its whole injection queue from the prepared search and runs the
// shared single-injection loop over it.

import (
	"math/rand"
	"sort"
	"strings"

	"anduril/internal/inject"
)

// strategyRow is one strategy: queue is nil for the feedback family.
type strategyRow struct {
	name     Strategy
	feedback feedbackSpec
	queue    func(e *engine) []inject.Instance
}

var strategyTable = [...]strategyRow{
	{name: FullFeedback, feedback: feedbackSpec{useFeedback: true, useTemporal: true}},
	{name: Exhaustive, queue: exhaustiveQueue},
	{name: SiteDistance},
	{name: SiteDistanceLimit, feedback: feedbackSpec{limited: true}},
	{name: SiteFeedback, feedback: feedbackSpec{useFeedback: true, limited: true}},
	{name: MultiplyFeedback, feedback: feedbackSpec{useFeedback: true, useTemporal: true, multiply: true}},
	{name: FATE, queue: fateQueue},
	{name: CrashTuner, queue: crashTunerQueue},
	{name: StackTrace, queue: stackTraceQueue},
	{name: Random, queue: randomQueue},
}

// Strategies lists every strategy in Table 2 column order: FullFeedback
// first, then the §8.3 ablations, then the §8.4 baselines.
func Strategies() []Strategy {
	out := make([]Strategy, len(strategyTable))
	for i, row := range strategyTable {
		out[i] = row.name
	}
	return out
}

// ValidStrategy reports whether a strategy name is recognized (for CLI
// validation).
func ValidStrategy(s string) bool {
	for _, row := range strategyTable {
		if string(row.name) == s {
			return true
		}
	}
	return false
}

// explore runs the prepared search under the options' strategy. An
// unknown strategy explores nothing and reports the fault space
// exhausted after zero rounds (callers validate names up front).
func (e *engine) explore() {
	for _, row := range strategyTable {
		if row.name != e.o.Strategy {
			continue
		}
		if row.queue != nil {
			e.enumerativeLoop(row.queue(e))
		} else {
			e.feedbackLoop(row.feedback)
		}
		return
	}
}

// enumerativeLoop drives the non-feedback strategies of §8.3/§8.4: each
// round injects the next candidate from a strategy-specific queue. The
// queue is a deterministic function of the free run, so a resumed loop
// rebuilds the identical queue and continues at the checkpointed round.
func (e *engine) enumerativeLoop(queue []inject.Instance) {
	for round := e.startRound + 1; round <= e.o.MaxRounds && round <= len(queue); round++ {
		if e.interrupted(round) {
			e.forceCheckpoint(round-1, 1)
			return
		}
		cand := queue[round-1]
		e.traceDecision(round, 1, []inject.Instance{cand})
		a := e.attemptRound(round, inject.Exact(cand), 0, 1, 0)
		if isInterrupted(a.err) {
			e.report.Interrupted = true
			e.forceCheckpoint(round-1, 1)
			return
		}
		if a.err != nil {
			e.recordInconclusive(a, 1)
			continue
		}
		if a.rd.Injected != nil {
			e.traceInjected(round, *a.rd.Injected, a.sat)
			if a.sat {
				e.reproduced(a.rd, a.seed)
				return
			}
		}
		e.recordRound(a.rd)
		e.maybeCheckpoint(round, 1)
	}
}

// exhaustiveQueue enumerates every instance of every causal-graph site in
// deterministic (site id, occurrence) order — the §8.3 "exhaustive fault
// instance" variant. It still benefits from the causal graph (site
// pruning) but has no dynamic prioritization. Pair pseudo-sites are
// excluded: the enumerative strategies model published single-fault
// injectors, and a pair candidate needs the feedback loop's pair-plan
// machinery to execute.
func exhaustiveQueue(e *engine) []inject.Instance {
	var out []inject.Instance
	for _, st := range e.sites {
		if st.class == inject.ClassPair {
			continue
		}
		for _, inst := range st.instances {
			out = append(out, candidateFor(st, inst))
		}
	}
	return out
}

// freeSites returns the sites the free run reached, sorted: the whole
// dynamic fault space, including sites the causal graph prunes from the
// candidate set.
func (e *engine) freeSites() []string {
	sites := make([]string, 0, len(e.freeRes.Counts))
	for site := range e.freeRes.Counts {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	return sites
}

// occurrenceMajor lists every free-run occurrence of the given sites
// breadth-first: the first occurrence of every site, then the second of
// every site, and so on, so one very hot site does not starve the others.
func (e *engine) occurrenceMajor(sites []string) []inject.Instance {
	counts := e.freeRes.Counts
	maxOcc := 0
	for _, site := range sites {
		maxOcc = max(maxOcc, counts[site])
	}
	var out []inject.Instance
	for occ := 1; occ <= maxOcc; occ++ {
		for _, site := range sites {
			if counts[site] >= occ {
				out = append(out, inject.Instance{Site: site, Occurrence: occ})
			}
		}
	}
	return out
}

// fateQueue models FATE's failure-ID exploration: it has no causal graph,
// so it covers every site exercised by the workload; failure IDs collapse
// repeated occurrences, so it explores breadth-first across sites.
func fateQueue(e *engine) []inject.Instance {
	return e.occurrenceMajor(e.freeSites())
}

// metaInfoTokens approximate CrashTuner's meta-info variables: sites in
// code regions that read or write node/task membership state.
var metaInfoTokens = []string{
	"election", "accept", "connect", "register", "announce", "join",
	"startup", "start", "recover", "lease", "assign", "claim", "rebalance",
}

// crashTunerQueue models CrashTuner: inject around meta-info access points
// only — the first and last occurrences of each matching site (crash-
// recovery windows), ordered by site.
func crashTunerQueue(e *engine) []inject.Instance {
	counts := e.freeRes.Counts
	var siteIDs []string
	for _, site := range e.freeSites() {
		for _, tok := range metaInfoTokens {
			if strings.Contains(site, tok) {
				siteIDs = append(siteIDs, site)
				break
			}
		}
	}
	var out []inject.Instance
	for _, site := range siteIDs {
		out = append(out, inject.Instance{Site: site, Occurrence: 1})
	}
	for _, site := range siteIDs {
		if c := counts[site]; c > 1 {
			out = append(out, inject.Instance{Site: site, Occurrence: c})
		}
	}
	for _, site := range siteIDs {
		if c := counts[site]; c > 2 {
			out = append(out, inject.Instance{Site: site, Occurrence: 2})
		}
	}
	return out
}

// stackTraceQueue models the stacktrace-injector of §8.4: it extracts the
// fault sites named in the failure log's error messages (our fault errors
// render as "Kind at site (occurrence n)", the analog of a logged stack
// trace) and injects only at those, every occurrence breadth-first.
func stackTraceQueue(e *engine) []inject.Instance {
	var mentioned []string
	for _, site := range e.freeSites() {
		for _, entry := range e.t.FailureLog {
			if strings.Contains(entry.Msg, site) {
				mentioned = append(mentioned, site)
				break
			}
		}
	}
	return e.occurrenceMajor(mentioned)
}

// randomQueue models chaos-style random injection over the whole dynamic
// fault space, without replacement.
func randomQueue(e *engine) []inject.Instance {
	var all []inject.Instance
	for _, site := range e.freeSites() {
		for occ := 1; occ <= e.freeRes.Counts[site]; occ++ {
			all = append(all, inject.Instance{Site: site, Occurrence: occ})
		}
	}
	rng := rand.New(rand.NewSource(e.o.Seed ^ 0x5eed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}
