package core

// Workflow steps 1-2 (§3, §5.1): relevant-observable extraction, template
// matching, spatial distances, and the fault-instance timeline alignment.

import (
	"sort"

	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/logdiff"
	"anduril/internal/logging"
	"anduril/internal/trace"
)

// flatten collapses thread names for the global-diff ablation.
func (e *engine) flatten(entries []logging.Entry) []logging.Entry {
	if !e.o.GlobalDiff {
		return entries
	}
	out := make([]logging.Entry, len(entries))
	for i, en := range entries {
		en.Thread = "*"
		out[i] = en
	}
	return out
}

// pairSite enumerates the combined-fault pseudo-site over two member
// sites (sa.id <= sb.id; sa == sb for a self-pair). Each pair instance
// joins one member instance from each side — all cross combinations for
// distinct members, unordered combinations (occ a < occ b) for a
// self-pair — positioned on the timeline at the later member: the
// combined effect completes only when the second fault lands. Each pair
// instance carries its temporal distance, the sum of its members'
// nearestObs distances. Returns nil when no instance combination exists.
func (e *engine) pairSite(sa, sb *siteState) *siteState {
	st := &siteState{
		id:      inject.PairSiteID(sa.id, sb.id),
		class:   inject.ClassPair,
		members: [2]*siteState{sa, sb},
	}
	self := sa == sb
	n := len(sa.instances) * len(sb.instances)
	if self {
		n = len(sa.instances) * (len(sa.instances) - 1) / 2
	}
	if n == 0 {
		return nil
	}
	st.instances = make([]instance, 0, n)
	st.pairInsts = make([]inject.Instance, 0, n)
	for ai, a := range sa.instances {
		bStart := 0
		if self {
			bStart = ai + 1
		}
		for _, b := range sb.instances[bStart:] {
			pi := inject.PairInstance(
				inject.Instance{Site: sa.id, Occurrence: a.occ, Path: a.path},
				inject.Instance{Site: sb.id, Occurrence: b.occ, Path: b.path},
			)
			pi.Occurrence = len(st.instances) + 1
			logPos, alignedPos := a.logPos, a.alignedPos
			if b.logPos > logPos {
				logPos = b.logPos
			}
			if b.alignedPos > alignedPos {
				alignedPos = b.alignedPos
			}
			st.pairInsts = append(st.pairInsts, pi)
			st.instances = append(st.instances, instance{
				occ: pi.Occurrence, logPos: logPos, alignedPos: alignedPos,
				memberPos: [2]float64{a.alignedPos, b.alignedPos},
				pairT:     e.nearestObs(a.alignedPos) + e.nearestObs(b.alignedPos),
			})
		}
	}
	return st
}

// sitesByID orders candidate sites by their unique ids.
type sitesByID []*siteState

func (s sitesByID) Len() int           { return len(s) }
func (s sitesByID) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s sitesByID) Less(i, j int) bool { return s[i].id < s[j].id }

// setup performs workflow steps 1-2: extract relevant observables, match
// them to causal-graph templates, compute spatial distances and the
// fault-instance timeline alignment.
func (e *engine) setup(free *cluster.Result) {
	cmp := logdiff.Compare(e.flatten(free.Entries), e.flatten(e.t.FailureLog))
	e.align = logdiff.NewAlignment(cmp, len(free.Entries), len(e.t.FailureLog))

	matcher := e.t.Analysis.Matcher()

	for _, key := range cmp.MissingKeys() {
		e.obs = append(e.obs, &observable{
			key:       key,
			positions: cmp.Missing[key],
			templates: matcher.Match(key.Msg),
		})
	}
	e.report.RelevantObservables = len(e.obs)

	// Spatial distances L_{i,k} from the static causal graph, computed
	// once per analysis Result and shared read-only across reproductions.
	dist := e.t.Analysis.SiteDistances()

	// Candidate sites: causally connected to at least one relevant
	// observable AND exercised by the workload (otherwise there is no
	// instance to inject).
	relevantTemplates := map[string]bool{}
	for _, o := range e.obs {
		for _, t := range o.templates {
			relevantTemplates[t] = true
		}
	}
	// Count first, then allocate each site's instance slice exactly once:
	// free-run traces carry tens of thousands of events, and letting append
	// grow each site's slice from scratch dominates setup's allocations.
	counts := map[string]int{}
	for _, ev := range free.Trace {
		counts[ev.Site]++
	}
	bySite := make(map[string][]instance, len(counts))
	for _, ev := range free.Trace {
		insts, ok := bySite[ev.Site]
		if !ok {
			insts = make([]instance, 0, counts[ev.Site])
		}
		bySite[ev.Site] = append(insts, instance{
			occ:        ev.Occurrence,
			logPos:     ev.LogPos,
			alignedPos: e.align.Map(ev.LogPos),
			path:       ev.Path,
			amp:        ev.Amp,
		})
	}
	// donors is the pair-member universe: the graph-pruned error-return
	// sites plus (with env enabled) the env pseudo-sites. It is collected
	// only when pair enumeration needs it, so default runs allocate
	// nothing extra; with pair-only fault classes the member sites are
	// still discovered here even though none enters e.sites itself.
	var donors []*siteState
	total := 0
	siteClass, pairClass := e.classes.Has(inject.ClassSite), e.classes.Has(inject.ClassPair)
	if siteClass || pairClass {
		for siteID, dists := range dist {
			reachesRelevant := false
			for tmpl := range dists {
				if relevantTemplates[tmpl] {
					reachesRelevant = true
					break
				}
			}
			if !reachesRelevant {
				continue
			}
			insts := bySite[siteID]
			if len(insts) == 0 {
				continue
			}
			st := &siteState{id: siteID, instances: insts, dists: dists}
			if pairClass {
				donors = append(donors, st)
			}
			if siteClass {
				e.sites = append(e.sites, st)
				total += len(insts)
			}
		}
	}
	e.instSite = total

	// Env and partial pseudo-sites come from the free-run trace alone,
	// not the causal graph: the network and disk reach them once per
	// message or perturbable operation of an enabled class, so only the
	// nodes, channels and disk sites the scenario actually exercises are
	// enumerated (a crash or partition is causally adjacent to everything
	// the topology connects). Candidate amplitude is calibrated from the
	// free run — the Zhang et al. realism idea — through the kind's
	// minimum amplitude. Env sites are pair donors; partial sites are
	// not, since a pair member must be a fault the member classes
	// already search.
	for siteID, insts := range bySite {
		f, ok := inject.ParsePseudoSite(siteID)
		if !ok || !e.classes.Has(f.Pseudo.Class()) {
			continue
		}
		if min := f.Pseudo.MinAmp(); min > 0 {
			kept := make([]instance, 0, len(insts))
			for _, inst := range insts {
				if inst.amp >= min {
					kept = append(kept, inst)
				}
			}
			insts = kept
		}
		if len(insts) == 0 {
			continue
		}
		st := &siteState{
			id: siteID, class: f.Pseudo.Class(), kind: f.Pseudo, instances: insts,
			subject: f.Subject, peer: f.Peer, marker: logdiff.Sanitize(f.Marker()),
		}
		e.sites = append(e.sites, st)
		if pairClass && st.class == inject.ClassEnv {
			donors = append(donors, st)
		}
		total += len(insts)
	}

	// Combined-fault pseudo-sites: every unordered pair of donor sites
	// (self-pairs included — two faults at one site, distinct instances)
	// except env×env, whose joint blast radius adds nothing the members
	// don't cover. Donors are sorted first so pair enumeration order — and
	// with it every pair instance's occurrence identity — is deterministic.
	if pairClass {
		sort.Sort(sitesByID(donors))
		for i, sa := range donors {
			for j := i; j < len(donors); j++ {
				sb := donors[j]
				if sa.class == inject.ClassEnv && sb.class == inject.ClassEnv {
					continue
				}
				if st := e.pairSite(sa, sb); st != nil {
					e.sites = append(e.sites, st)
					total += len(st.instances)
				}
			}
		}
	}
	sort.Sort(sitesByID(e.sites))

	// Under path addressing every free-run reach carries its canonical
	// path; index it per site so an injection run's path-matched reach
	// resolves back to the free-run instance it names.
	if e.o.Addressing == AddrPath {
		for _, s := range e.sites {
			if s.class == inject.ClassPair {
				continue
			}
			s.byPath = make(map[string]int, len(s.instances))
			for _, inst := range s.instances {
				if inst.path != "" {
					s.byPath[inst.path] = inst.occ
				}
			}
		}
	}
	e.siteIndex = make(map[string]*siteState, len(e.sites))
	for _, s := range e.sites {
		e.siteIndex[s.id] = s
	}
	e.report.CandidateSites = len(e.sites)
	e.report.CandidateInstances = total

	// Baked faults are part of the workload now; never re-explore them.
	for _, b := range e.baked {
		e.markTried(b)
	}

	// A resumed run re-executes the free run (it is deterministic) but its
	// trace continues the original stream, which already carries the
	// FreeRun event — re-emitting it would break prefix concatenation.
	if e.tracing() && e.resume == nil {
		obsLabels := make([]string, len(e.obs))
		for i, o := range e.obs {
			obsLabels[i] = obsLabel(o)
		}
		siteCounts := make([]trace.SiteCount, len(e.sites))
		for i, s := range e.sites {
			siteCounts[i] = trace.SiteCount{Site: s.id, Instances: len(s.instances)}
		}
		e.emit(&trace.Event{
			Type: trace.FreeRun, Target: e.t.ID, Strategy: string(e.o.Strategy),
			Seed: e.o.Seed, LogLines: len(free.Entries), Observables: obsLabels,
			Sites: siteCounts,
		})
	}
}
