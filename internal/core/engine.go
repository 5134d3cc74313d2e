package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"anduril/internal/cluster"
	"anduril/internal/inject"
	"anduril/internal/logdiff"
	"anduril/internal/trace"
)

// observable is one relevant observable o_k (§5.1): a log message that only
// appears in the failure log, with its positions on the failure timeline,
// its matching static templates, and its feedback priority I_k.
type observable struct {
	key       logdiff.Key
	positions []int
	templates []string
	priority  int
}

// instance is one dynamic fault candidate f_{i,j} from the free run.
type instance struct {
	occ        int
	logPos     int
	alignedPos float64 // position mapped onto the failure-log timeline
	path       string  // canonical PathAddr string (path addressing only)
	amp        int     // observed amplitude (partial pseudo-sites only)

	// memberPos holds each member's own aligned position for pair
	// instances (both equal to alignedPos otherwise, unused): temporal
	// ranking scores a pair by how close each fault lands to a relevant
	// observable, not just where the combined effect completes. pairT is
	// that score, nearestObs(memberPos[0]) + nearestObs(memberPos[1]),
	// computed once at setup: it depends only on the observables, which
	// are fixed for the whole search.
	memberPos [2]float64
	pairT     float64
}

// triedSet tracks which occurrences of a site have been injected. It is a
// dense bitset: occurrence numbers are small (bounded by how often the
// site fires in a run), and the selection loop probes the set for every
// untried instance on every round, so the constant-time word test replaces
// a map probe on the search hot path. The zero value is an empty set.
type triedSet struct {
	words []uint64
	n     int
}

// Has reports whether occ is in the set.
func (t *triedSet) Has(occ int) bool {
	w := occ >> 6
	return w < len(t.words) && t.words[w]&(1<<(uint(occ)&63)) != 0
}

// Add inserts occ, reporting whether it was newly added.
func (t *triedSet) Add(occ int) bool {
	w := occ >> 6
	for w >= len(t.words) {
		t.words = append(t.words, 0)
	}
	bit := uint64(1) << (uint(occ) & 63)
	if t.words[w]&bit != 0 {
		return false
	}
	t.words[w] |= bit
	t.n++
	return true
}

// Len returns the number of occurrences in the set.
func (t *triedSet) Len() int { return t.n }

// Occurrences returns the set's members in ascending order.
func (t *triedSet) Occurrences() []int {
	out := make([]int, 0, t.n)
	for w, word := range t.words {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6+bits.TrailingZeros64(word))
		}
	}
	return out
}

// siteState is the explorer's view of one static fault site f_i.
type siteState struct {
	id        string
	class     inject.Class
	kind      inject.Pseudo // pseudo-fault kind (env and partial sites only)
	instances []instance
	tried     triedSet

	// dists are the site's causal-graph distances, template -> L
	// (error-return sites only).
	dists map[string]int

	// The decoded pseudo-site (env and partial sites only): subject and
	// peer feed the injection trace, and marker is the kind's sanitized
	// injection-marker line — an observable equal to it is direct
	// failure-log evidence for this site, scored markerMatchedDist.
	subject, peer string
	marker        string

	// byPath maps canonical path strings to free-run occurrence identity
	// (path addressing only): an injection run's reach is matched by path,
	// and its tried-set entry is the free-run instance that path names.
	byPath map[string]int

	// Pair pseudo-site state: the two member sites (sorted, equal for a
	// self-pair) and the full pair Instance per enumerated instance,
	// parallel to instances.
	members   [2]*siteState
	pairInsts []inject.Instance

	f       float64 // current priority F_i (smaller = higher priority)
	bestObs int     // index of the observable realizing F_i
}

// engine holds all mutable search state for one Reproduce call. A fresh
// engine is built per call and never shared, so concurrent Reproduce runs
// are independent as long as they treat the (possibly shared) Target as
// read-only — which every method here does: the engine only ever reads
// t.FailureLog, t.Analysis, t.Oracle and t.Workload, and all derived
// state (observables, site states, distance tables) lives on the engine.
//
// The search itself is split across phase files: setup.go (observable
// extraction and candidate discovery), ranking.go (site priorities and the
// incremental priority index), selection.go (instance selection and the
// flexible window), feedback.go (the Algorithm 2 loop), and strategies.go
// (the strategy table and the enumerative baselines).
type engine struct {
	t *Target
	o Options

	obs       []*observable
	sites     []*siteState
	siteIndex map[string]*siteState // id -> state, for O(1) markTried
	align     *logdiff.Alignment

	sumBest map[string]float64 // sum-aggregation ablation bookkeeping

	// Per-round scratch, reused across the thousands of rounds a search
	// runs: the ranking snapshot, the candidate window, the multiply-
	// feedback pair buffer, and the missing-observable vector. Each is
	// valid only until the next round recomputes it.
	rankedBuf []*siteState
	candBuf   []inject.Instance
	pairBuf   []scoredPair
	missBuf   []bool

	// baked faults are injected in every run of this pass (iterative
	// multi-fault reproduction); the search explores candidates on top.
	baked []inject.Instance

	// ctx cancels the search from outside (Options.Context).
	ctx context.Context

	// freeRes is the free run the strategies explore from.
	freeRes *cluster.Result

	// Enabled fault classes, resolved from Options/Target (site-only by
	// default), and the cluster options every trial runs under. instSite
	// counts the site-class candidate instances and triedSite how many
	// are tried, so the window logic can tell when the site-class space
	// is saturated and later classes' candidates may enter.
	classes   inject.ClassSet
	execOpts  []cluster.ExecOption
	instSite  int
	triedSite int

	// rankerFor, when set, builds the run's ranker in place of the
	// incremental index: the reference ranker of the equivalence tests.
	rankerFor func(e *engine, useFeedback bool) ranker

	// pairWindow is the pair-round candidate list the current round armed,
	// indexed like the PairPlan's rank order; tryOnce maps the plan's
	// committed index back through it to the canonical pair Instance.
	pairWindow []inject.Instance

	// Resume state: the checkpoint being restored (nil on a fresh run),
	// the round the restored search had completed, and its window size.
	resume       *searchState
	startRound   int
	resumeWindow int

	report *Report
}

func newEngine(t *Target, o Options) *engine {
	e := &engine{t: t, o: o, ctx: o.Context, report: &Report{
		Target: t.ID, Issue: t.Issue, Strategy: o.Strategy,
	}}
	e.classes = resolveClasses(t, o)
	e.execOpts = []cluster.ExecOption{cluster.WithFaultClasses(e.classes)}
	if o.Addressing == AddrPath {
		e.execOpts = append(e.execOpts, cluster.WithPathAddressing())
	}
	return e
}

// resolveClasses resolves the enabled fault classes from Options (which
// wins when set) or the Target, defaulting to site-only. Unknown names
// are ignored here; callers validate with ValidFaultClass up front.
func resolveClasses(t *Target, o Options) inject.ClassSet {
	if o.FaultClasses != nil {
		return inject.ParseClasses(o.FaultClasses)
	}
	return inject.ParseClasses(t.FaultClasses)
}

// Fault-class names for Options.FaultClasses / Target.FaultClasses, as
// the inject class table spells them.
const (
	ClassSite    = "site"
	ClassEnv     = "env"
	ClassPair    = "pair"
	ClassPartial = "partial"
)

// ValidFaultClass reports whether a class name is recognized (for CLI
// validation).
func ValidFaultClass(c string) bool {
	_, ok := inject.ClassByName(c)
	return ok
}

// retrySeedOffset derives the retry seed of a failed trial: far outside
// both the per-round stream (Seed+round, round <= MaxRounds) and the
// combined-log stream (Seed+MaxRounds+round*RunsPerRound+extra), so a
// retry never collides with a seed the search would use anyway.
const retrySeedOffset = int64(1) << 32

// tracing reports whether a trace sink is attached. Every emission below
// is guarded by it, so a disabled trace builds no events and allocates
// nothing on the search path.
func (e *engine) tracing() bool { return e.o.Trace != nil }

func (e *engine) emit(ev *trace.Event) { e.o.Trace.Emit(ev) }

// obsLabel renders an observable's identity for trace events.
func obsLabel(o *observable) string { return o.key.Thread + ": " + o.key.Msg }

// injectedTypes maps each fault class to its injection event type.
var injectedTypes = [inject.NumClasses]trace.EventType{
	inject.ClassSite:    trace.Injected,
	inject.ClassEnv:     trace.EnvInjected,
	inject.ClassPartial: trace.PartialInjected,
	inject.ClassPair:    trace.PairInjected,
}

// classify returns the class and decoded pseudo-site of an injected
// site: read off the candidate state, or decoded from the ID for sites
// outside the candidate set (the baselines enumerate every free-run
// site).
func (e *engine) classify(site string) (inject.Class, inject.PseudoFault) {
	if s, ok := e.siteIndex[site]; ok {
		return s.class, inject.PseudoFault{Pseudo: s.kind, Subject: s.subject, Peer: s.peer}
	}
	if f, ok := inject.ParsePseudoSite(site); ok {
		return f.Pseudo.Class(), f
	}
	return inject.ClassOf(site), inject.PseudoFault{}
}

// traceInjected records the reach at which a round's fault fired. Each
// class has its own event type: env and partial injections carry the
// decoded kind, subject node(s) and (env) virtual-time duration; a pair
// injection carries its two decoded member instances.
func (e *engine) traceInjected(round int, inst inject.Instance, satisfied bool) {
	if !e.tracing() {
		return
	}
	class, f := e.classify(inst.Site)
	ev := &trace.Event{
		Type: injectedTypes[class], Round: round,
		Site: inst.Site, Occ: inst.Occurrence, Path: inst.Path, Satisfied: satisfied,
	}
	switch class {
	case inject.ClassEnv, inject.ClassPartial:
		ev.Class = f.Pseudo.Name()
		ev.Subject = f.Subject
		ev.Peer = f.Peer
		ev.Dur = int64(f.Pseudo.Duration())
	case inject.ClassPair:
		a, b, _ := inject.PairMembers(inst)
		ev.Path = "" // the member list already carries the references
		ev.Members = []trace.Candidate{
			{Site: a.Site, Occ: a.Occurrence, Path: a.Path},
			{Site: b.Site, Occ: b.Occurrence, Path: b.Path},
		}
	}
	e.emit(ev)
}

// traceDecision records the candidate window handed to the runtime: the
// first trace.MaxCandidates members, the full count, and the injection
// budget (1 searched fault plus any baked ones).
func (e *engine) traceDecision(round, window int, candidates []inject.Instance) {
	if !e.tracing() {
		return
	}
	list := candidates
	if len(list) > trace.MaxCandidates {
		list = list[:trace.MaxCandidates]
	}
	cs := make([]trace.Candidate, len(list))
	for i, c := range list {
		cs[i] = trace.Candidate{Site: c.Site, Occ: c.Occurrence, Path: c.Path}
	}
	e.emit(&trace.Event{
		Type: trace.Decision, Round: round, Window: window,
		Candidates: cs, CandidateCount: len(candidates), Budget: 1 + len(e.baked),
	})
}

// bakedPlan returns the plan injecting the baked faults (nil when none).
func (e *engine) bakedPlan(extra inject.Plan) inject.Plan {
	if len(e.baked) == 0 {
		return extra
	}
	plans := make([]inject.Plan, 0, len(e.baked)+1)
	for _, b := range e.baked {
		plans = append(plans, inject.Exact(b))
	}
	if extra != nil {
		plans = append(plans, extra)
	}
	return inject.Multi(plans...)
}

// matchesEvent reports whether an instance names the given injected
// reach. A path-addressed instance matches by its canonical path (the
// global occurrence of a reach may legitimately differ between runs).
func matchesEvent(b inject.Instance, ev inject.TraceEvent) bool {
	if b.Site != ev.Site {
		return false
	}
	if b.Path != "" {
		return b.Path == ev.Path
	}
	return b.Occurrence == ev.Occurrence
}

// isBaked reports whether an injected event is one of the baked faults.
// A baked pair fault injects through its two members, so either member
// reach counts as baked.
func (e *engine) isBaked(ev inject.TraceEvent) bool {
	for _, b := range e.baked {
		if a, c, ok := inject.PairMembers(b); ok {
			if matchesEvent(a, ev) || matchesEvent(c, ev) {
				return true
			}
			continue
		}
		if matchesEvent(b, ev) {
			return true
		}
	}
	return false
}

// run executes the whole workflow: free run, setup, then the strategy's
// exploration (see explore).
func (e *engine) run() *Report {
	start := time.Now()
	if err := e.prepare(); err != nil {
		if isInterrupted(err) {
			e.report.Interrupted = true
		} else {
			e.report.Error = err.Error()
		}
		e.finish(start)
		return e.report
	}
	e.explore()
	e.finish(start)
	return e.report
}

// prepare performs the free run (workflow step 1) and setup (step 2). The
// free run is isolated like any trial: a panic or budget exhaustion is
// retried once under the next derived seed, and a second failure aborts
// the search with an error (there is no timeline to search without it).
func (e *engine) prepare() error {
	freeStart := time.Now()
	free, err := e.trial(e.o.Seed, e.bakedPlan(nil), true)
	if err != nil && !isInterrupted(err) {
		free, err = e.trial(e.o.Seed+retrySeedOffset, e.bakedPlan(nil), true)
	}
	if err != nil {
		if !isInterrupted(err) {
			err = fmt.Errorf("free run failed twice: %w", err)
		}
		return err
	}
	e.report.FreeRunTime = time.Since(freeStart)
	e.report.FreeRunLogLines = len(free.Entries)
	e.freeRes = free
	e.setup(free)
	return nil
}

// finish closes the report. An interrupted search emits no trace outcome:
// its trace must stay a pure prefix of the uninterrupted stream so a
// resumed continuation concatenates into the identical trace.
func (e *engine) finish(start time.Time) {
	e.report.Elapsed += time.Since(start)
	if e.report.Script != nil {
		class, _ := e.classify(e.report.Script.Site)
		e.report.EnvRooted = class == inject.ClassEnv
		e.report.PartialRooted = class == inject.ClassPartial
	}
	if e.report.Interrupted {
		return
	}
	if e.tracing() {
		ev := &trace.Event{
			Type: trace.Outcome, Reproduced: e.report.Reproduced,
			Rounds: e.report.Rounds,
		}
		switch {
		case e.report.Reproduced:
			ev.Reason = trace.ReasonReproduced
			ev.Site = e.report.Script.Site
			ev.Occ = e.report.Script.Occurrence
			ev.Path = e.report.Script.Path
			ev.ScriptSeed = e.report.ScriptSeed
		case e.report.Error != "":
			ev.Reason = trace.ReasonError
			ev.Detail = e.report.Error
		case e.report.Rounds >= e.o.MaxRounds:
			ev.Reason = trace.ReasonRoundCap
		default:
			ev.Reason = trace.ReasonExhausted
		}
		if n := len(e.report.RoundLog); n > 0 {
			ev.RootRank = e.report.RoundLog[n-1].RootRank
		}
		e.emit(ev)
	}
}

// trial runs the workload once under the engine's watchdogs: panic
// recovery, the event budget, and the cancellation context.
func (e *engine) trial(seed int64, plan inject.Plan, keepTrace bool) (*cluster.Result, error) {
	return cluster.TryExecute(e.ctx, seed, plan, keepTrace, e.t.Workload, e.t.Horizon, eventBudget, e.execOpts...)
}

// interrupted reports whether the search must stop before starting the
// given round — the simulated kill switch fired or the context was
// cancelled — and marks the report resumable if so.
func (e *engine) interrupted(round int) bool {
	if e.o.StopAfterRound > 0 && round > e.o.StopAfterRound {
		e.report.Interrupted = true
		return true
	}
	if e.ctx != nil && e.ctx.Err() != nil {
		e.report.Interrupted = true
		return true
	}
	return false
}

// isInterrupted matches the trial error of an externally-cancelled run.
func isInterrupted(err error) bool {
	var te *cluster.TrialError
	return errors.As(err, &te) && te.Class == cluster.ClassInterrupted
}

// failureClass maps a trial error to its (class, detail) pair.
func failureClass(err error) (string, string) {
	var te *cluster.TrialError
	if errors.As(err, &te) {
		return te.Class, te.Detail
	}
	return "error", err.Error()
}

// safeSatisfied judges a result, recovering an oracle panic into a trial
// error of class oracle.
func (e *engine) safeSatisfied(res *cluster.Result) (sat bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			sat = false
			err = &cluster.TrialError{Class: cluster.ClassOracle, Detail: fmt.Sprint(p)}
		}
	}()
	return e.t.Oracle.Satisfied(res), nil
}

// attempt is the outcome of one round's isolated trial: the run result and
// round bookkeeping, the seed the (possibly retried) trial actually ran
// under, the oracle verdict, and the terminal error when both the trial
// and its retry failed.
type attempt struct {
	res  *cluster.Result
	rd   *Round
	seed int64
	sat  bool
	err  error
}

// attemptRound runs one round with the trial-isolation policy: execute
// the plan and judge the result; on any failure — target panic, event
// budget, oracle panic — retry once under the next derived seed; a second
// failure degrades the round to inconclusive (err set, rd.Failure
// classified). Cancellation is never retried.
func (e *engine) attemptRound(round int, plan inject.Plan, initTime time.Duration, windowSize, rootRank int) attempt {
	rd := &Round{N: round, RootRank: rootRank, WindowSize: windowSize, InitTime: initTime}
	runStart := time.Now()
	a := e.tryOnce(e.o.Seed+int64(round), plan, rd)
	if a.err != nil && !isInterrupted(a.err) {
		// Stateful plans (PairPlan's commit, Multi's fired counters) must
		// start the retry trial fresh, or the retry replays half-spent state.
		if r, ok := plan.(inject.Resetter); ok {
			r.Reset()
		}
		a = e.tryOnce(e.o.Seed+int64(round)+retrySeedOffset, plan, rd)
	}
	rd.RunTime = time.Since(runStart)
	a.rd = rd
	if a.err != nil && !isInterrupted(a.err) {
		rd.Inconclusive = true
		rd.Failure, _ = failureClass(a.err)
	}
	return a
}

// tryOnce executes the plan under one seed and judges the result,
// recording the round's runtime bookkeeping from whatever the run
// produced (a recovered panic still yields a partial result).
func (e *engine) tryOnce(seed int64, plan inject.Plan, rd *Round) attempt {
	res, err := e.trial(seed, e.bakedPlan(plan), false)
	if res != nil {
		reqs, decTime := res.Env.FI.Decisions()
		rd.InjectReqs, rd.DecideTime = reqs, decTime
		// The round's searched injection is the one that is not baked. A
		// pair round reports the committed pair instance (reconstructed
		// from the plan's commit index) rather than a single member reach.
		rd.Injected = nil
		if pp, ok := plan.(*inject.PairPlan); ok {
			if idx, committed := pp.Committed(); committed {
				inst := e.pairWindow[idx]
				rd.Injected = &inst
			}
		} else {
			for _, ev := range res.Env.FI.InjectedAll() {
				if e.isBaked(ev) {
					continue
				}
				rd.Injected = &inject.Instance{Site: ev.Site, Occurrence: ev.Occurrence, Path: ev.Path}
				break
			}
		}
	}
	if err != nil {
		return attempt{res: res, seed: seed, err: err}
	}
	sat, serr := e.safeSatisfied(res)
	if serr != nil {
		return attempt{res: res, seed: seed, err: serr}
	}
	return attempt{res: res, seed: seed, sat: sat}
}

// recordInconclusive books a degraded round: the report and trace record
// the failure class, the attempted instance (if one injected before the
// failure) counts as tried so the search advances, and no feedback flows.
func (e *engine) recordInconclusive(a attempt, window int) {
	rd := a.rd
	if rd.Injected != nil {
		e.markTried(*rd.Injected)
	}
	e.report.InconclusiveRounds++
	e.recordRound(rd)
	if e.tracing() {
		class, detail := failureClass(a.err)
		ev := &trace.Event{Type: trace.Inconclusive, Round: rd.N, Class: class, Detail: detail}
		var te *cluster.TrialError
		if errors.As(a.err, &te) {
			// Subject identifiers: the trial seed that failed and — for
			// panics — the actor (node thread) executing when it fired.
			ev.Seed = te.Seed
			ev.Actor = te.Actor
		}
		if rd.Injected != nil {
			ev.Site, ev.Occ = rd.Injected.Site, rd.Injected.Occurrence
		}
		e.emit(ev)
	}
	e.maybeCheckpoint(rd.N, window)
}

// recordRound books a completed round in the report.
func (e *engine) recordRound(rd *Round) {
	e.report.RoundLog = append(e.report.RoundLog, *rd)
	e.report.Rounds = rd.N
}

// reproduced books the round whose injection satisfied the oracle under
// seed: the search's one success exit.
func (e *engine) reproduced(rd *Round, seed int64) {
	rd.Satisfied = true
	e.recordRound(rd)
	e.report.Reproduced = true
	e.report.Script = rd.Injected
	e.report.ScriptSeed = seed
}

func (e *engine) markTried(inst inject.Instance) {
	s, ok := e.siteIndex[inst.Site]
	if !ok {
		return
	}
	occ := inst.Occurrence
	if inst.Path != "" && s.class != inject.ClassPair {
		// A path-addressed injection reports the run-local occurrence of
		// the reach; the tried set is keyed by the free-run identity, so
		// resolve the canonical path back through the site's path index.
		if o, found := s.byPath[inst.Path]; found {
			occ = o
		}
	}
	if !s.tried.Add(occ) {
		return
	}
	if s.class == inject.ClassSite {
		e.triedSite++
	}
}
