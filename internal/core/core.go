// Package core implements ANDURIL's explorer (§5): the feedback-driven
// search over the fault space for the root-cause fault and timing.
//
// A reproduction run follows the workflow of §3: one free run of the
// workload collects the normal log and the dynamic fault-instance timeline;
// the failure log is diffed against it to extract relevant observables
// (§5.1); the static causal graph supplies spatial distances from fault
// sites to observables (§5.2.2); the free-run timeline, aligned onto the
// failure log's timeline, supplies temporal distances for fault instances
// (§5.2.3); and each unsuccessful injection feeds back into observable
// priorities (§5.2.1, Algorithm 2). Candidate instances are injected
// through a flexible priority window (§5.2.5).
//
// The package also implements the five ablation variants of §8.3 and the
// comparison systems of §8.4 (FATE, CrashTuner, stacktrace-injector, plus
// a chaos-style random injector) as further rows of one strategy table.
package core

import (
	"context"
	"encoding/json"
	"sort"
	"time"

	"anduril/internal/analysis"
	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/logging"
	"anduril/internal/oracle"
	"anduril/internal/trace"
)

// Strategy selects the exploration algorithm.
type Strategy string

// Addressing selects how injection plans name dynamic fault instances.
type Addressing string

// Addressing modes. AddrOccurrence is the paper's (site, occurrence)
// currency: instance j of site i is "the j-th time the run reaches i".
// AddrPath is distributed execution indexing: an instance is named by its
// position in the distributed call tree — the chain of message-send edges
// from the workload root down to the reach, e.g.
// "client.put>coord.write[2]>dyn.store.persist#1". Path addresses are
// stable across runs whose interleavings shuffle global occurrence
// numbers, at the cost of per-reach path bookkeeping.
const (
	AddrOccurrence Addressing = "occurrence"
	AddrPath       Addressing = "path"
)

// ValidAddressing reports whether an addressing-mode name is recognized
// (for CLI validation). The empty string is valid and means the default.
func ValidAddressing(a string) bool {
	return a == "" || Addressing(a) == AddrOccurrence || Addressing(a) == AddrPath
}

// Strategies. FullFeedback is complete ANDURIL; the next five are the
// ablation variants of §8.3; the last four are the §8.4 baselines.
const (
	FullFeedback      Strategy = "full-feedback"
	Exhaustive        Strategy = "exhaustive-instance"
	SiteDistance      Strategy = "site-distance"
	SiteDistanceLimit Strategy = "site-distance-limit"
	SiteFeedback      Strategy = "site-feedback"
	MultiplyFeedback  Strategy = "multiply-feedback"
	FATE              Strategy = "fate"
	CrashTuner        Strategy = "crashtuner"
	StackTrace        Strategy = "stacktrace"
	Random            Strategy = "random"
)

// Target is one failure to reproduce: the inputs of §2.
//
// A Target is read-only during Reproduce: the explorer only reads its
// fields and derives all mutable search state internally, so one Target
// may back any number of concurrent Reproduce/Verify calls (the parallel
// evaluation harness relies on this). The contract extends to the field
// values — Workload must build a fresh system into the Env it is handed
// and Oracle.Check must only inspect the Result it receives; neither may
// capture mutable state shared across rounds.
type Target struct {
	ID          string // dataset id, e.g. "f17"
	Issue       string // upstream issue, e.g. "HB-25905"
	System      string
	Description string

	Workload cluster.Workload
	Horizon  des.Time
	Oracle   oracle.Oracle

	// FailureLog is the parsed production log from the uninstrumented
	// deployment.
	FailureLog []logging.Entry

	// Analysis is the static causal graph et al. for the target system.
	Analysis *analysis.Result

	// RootSite is the ground-truth root-cause site, used only for rank
	// tracking (Figure 6) and reporting — never by the search itself.
	RootSite string

	// FaultClasses are the fault classes the search explores for this
	// target by default ("site", "env", "pair", "partial"); nil means
	// site-only, the paper's fault space. Options.FaultClasses overrides
	// per run.
	FaultClasses []string
}

// Options tune the explorer.
type Options struct {
	Strategy  Strategy
	Window    int   // initial flexible-window size k (§5.2.5); default 10
	Adjust    int   // observable priority adjustment s (§5.2.1); default 1
	MaxRounds int   // round cap; default 2000
	Seed      int64 // master seed; round r runs with Seed+r
	TrackRank bool  // record the root site's rank each round (Figure 6)

	// FaultClasses selects which fault classes the search explores:
	// "site" (error-return sites, the paper's fault space), "env"
	// (environment pseudo-sites: node crash/restart, pairwise
	// partition/heal, message drop/delay), "partial" (partial-failure
	// pseudo-sites at the sim-syscall boundary: short write, mid-append
	// ENOSPC, torn rename, duplicated delivery, eintr), and/or "pair"
	// (combined faults: two member instances injected in one round,
	// addressed through pair/ pseudo-sites). nil defaults to the
	// target's FaultClasses, and site-only when the target declares
	// none. Wider classes never perturb narrower searches: the window
	// admits env instances only after every selectable site-class
	// instance has been tried, partial instances only after the env
	// space is also spent, and pair instances last of all — each class
	// runs to exhaustion in its exact original order.
	FaultClasses []string

	// Addressing selects how candidate instances are named in plans:
	// AddrOccurrence (the default) uses the (site, occurrence) pairs of
	// the paper, AddrPath uses distributed execution indexing (canonical
	// call-path strings). Path addressing is seed-stable: the same
	// failure reproduces at the same address across runs even when
	// interleaving shifts renumber global occurrences.
	Addressing Addressing

	// RunsPerRound re-executes an unsuccessful injection under extra seeds
	// and feeds back the combined logs — the §6 mitigation for runs whose
	// internal concurrency makes crucial log messages probabilistic.
	// Default 1 (the paper's base algorithm).
	RunsPerRound int

	// Ablation knobs for the design choices §5.2.4 discusses. All default
	// to the paper's choices (min aggregation, #log-messages temporal
	// distance, doubling window, per-thread diff).
	AggregateSum    bool // F_i = sum_k(p_{i,k}) instead of min_k
	TemporalByOrder bool // T by instance order instead of log-message count
	FixedWindow     bool // never double the window on empty rounds
	GlobalDiff      bool // diff logs globally instead of per thread

	// Checkpoint, when non-empty, is a file path the engine atomically
	// writes its search state to every CheckpointEvery rounds, so a killed
	// search can continue via Resume. "" (the default) disables
	// checkpointing at zero cost. Because per-round seeds derive from
	// Seed+round, a resumed run is byte-identical — trace and final report —
	// to the same run uninterrupted.
	Checkpoint      string
	CheckpointEvery int // rounds between checkpoint writes; default 10

	// CheckpointFlush, when non-nil alongside Checkpoint, is invoked
	// immediately BEFORE each checkpoint write — periodic or the forced
	// final write on interrupt — with the round the checkpoint will
	// record. External journals (the server's buffered trace WAL) flush
	// their per-round state here, so on disk the journal is always at or
	// ahead of the checkpoint: a crash between the flush and the write
	// loses only the newer checkpoint, never journaled events, and
	// recovery trims the journal back to whatever round the surviving
	// checkpoint names.
	CheckpointFlush func(round int)

	// Context, when non-nil, cancels the search from outside: the engine
	// checks it between rounds and the DES kernel polls it inside runs.
	// A cancelled search returns with Report.Interrupted set and emits no
	// trace outcome, so its trace stays a resumable prefix.
	Context context.Context

	// StopAfterRound, when positive, interrupts the search after recording
	// that many rounds, exactly as an external kill at a round boundary
	// would — the deterministic "kill switch" behind the resume-equivalence
	// tests and `anduril -stop-after`.
	StopAfterRound int

	// Trace receives the structured event stream of the search: free-run
	// setup, per-round ranked-site snapshots, injection decisions, feedback
	// deltas and the terminal outcome. Events carry only seed-determined
	// data, so the stream is byte-identical for a fixed (Target, Options).
	// nil (the default) disables tracing at zero cost: the engine checks
	// the sink before building any event.
	Trace trace.Sink
}

func (o Options) withDefaults() Options {
	if o.Strategy == "" {
		o.Strategy = FullFeedback
	}
	if o.Window <= 0 {
		o.Window = 10
	}
	if o.Adjust <= 0 {
		o.Adjust = 1
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 2000
	}
	if o.RunsPerRound <= 0 {
		o.RunsPerRound = 1
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 10
	}
	if o.Addressing == "" {
		o.Addressing = AddrOccurrence
	}
	return o
}

// eventBudget caps the DES events of a single trial run. A livelocked
// target (a zero-delay self-scheduling loop) never advances virtual
// time, so the time horizon alone cannot stop it; the budget is the
// watchdog that bounds the round, degrading it to inconclusive. The
// dataset's free runs execute under ~2k events, so a million-event trial
// is a livelock, not a slow run.
const eventBudget = 1 << 20

// Round records one injection round.
type Round struct {
	N          int
	Injected   *inject.Instance // nil when no candidate occurred
	Satisfied  bool
	RootRank   int // 1-based rank of the ground-truth site; 0 if untracked
	MissingObs int // relevant observables still missing after this round
	WindowSize int
	InitTime   time.Duration // priority computation before the run
	RunTime    time.Duration // wall time of the workload run
	InjectReqs int           // injection requests the runtime received
	DecideTime time.Duration // total plan-decision latency in the run

	// Inconclusive marks a round whose trial could not be judged even
	// after one retry under the next derived seed; Failure carries the
	// class (cluster.ClassPanic, ClassEventBudget, ClassOracle). The round
	// contributed no feedback, but its injected instance (if any) counts
	// as tried so the search moves on.
	Inconclusive bool
	Failure      string `json:",omitempty"`
}

// Report is the outcome of a reproduction attempt.
type Report struct {
	Target     string
	Issue      string
	Strategy   Strategy
	Reproduced bool
	Rounds     int
	Script     *inject.Instance // deterministic reproduction plan (step 4.a)
	ScriptSeed int64            // the seed of the reproducing round: Exact(Script) under this seed replays deterministically

	// EnvRooted marks a reproduction whose script is an environment
	// fault (node crash, partition, message drop/delay) rather than an
	// error-return site.
	EnvRooted bool `json:",omitempty"`

	// PartialRooted marks a reproduction whose script is a partial
	// failure (short write, mid-append ENOSPC, torn rename, duplicated
	// delivery, eintr) rather than an error-return site.
	PartialRooted bool `json:",omitempty"`
	RoundLog      []Round
	Elapsed       time.Duration

	RelevantObservables int
	CandidateSites      int
	CandidateInstances  int
	FreeRunLogLines     int
	FreeRunTime         time.Duration

	// BestPartial is the injection whose round log came closest to the
	// failure log (fewest still-missing observables). When the search
	// fails, this is the §3 hint for iterative multi-fault reproduction.
	BestPartial        *inject.Instance
	BestPartialMissing int

	// Interrupted is set when the search stopped early — Options.Context
	// cancelled or Options.StopAfterRound reached — instead of finishing.
	// An interrupted report is not a verdict: resume from the checkpoint
	// to continue the search.
	Interrupted bool `json:",omitempty"`

	// InconclusiveRounds counts rounds degraded by trial isolation (see
	// Round.Inconclusive).
	InconclusiveRounds int `json:",omitempty"`

	// Error is set when the search could not start at all: the free run
	// failed twice (e.g. the target panics without any injection).
	Error string `json:",omitempty"`

	// CheckpointError records the first failed checkpoint write, if any.
	// Checkpointing is best-effort: a write failure never stops the search.
	CheckpointError string `json:",omitempty"`
}

// MedianInitTime returns the median per-round initialization time.
func (r *Report) MedianInitTime() time.Duration {
	return medianDuration(r.RoundLog, func(rd Round) time.Duration { return rd.InitTime })
}

// MedianRunTime returns the median per-round workload time.
func (r *Report) MedianRunTime() time.Duration {
	return medianDuration(r.RoundLog, func(rd Round) time.Duration { return rd.RunTime })
}

// MedianInjectReqs returns the median injection requests per round.
func (r *Report) MedianInjectReqs() int {
	if len(r.RoundLog) == 0 {
		return 0
	}
	vals := make([]int, 0, len(r.RoundLog))
	for _, rd := range r.RoundLog {
		vals = append(vals, rd.InjectReqs)
	}
	sort.Ints(vals)
	return vals[len(vals)/2]
}

// MeanDecisionLatency returns the mean latency of one injection decision.
func (r *Report) MeanDecisionLatency() time.Duration {
	var total time.Duration
	reqs := 0
	for _, rd := range r.RoundLog {
		total += rd.DecideTime
		reqs += rd.InjectReqs
	}
	if reqs == 0 {
		return 0
	}
	return total / time.Duration(reqs)
}

func medianDuration(rounds []Round, f func(Round) time.Duration) time.Duration {
	if len(rounds) == 0 {
		return 0
	}
	vals := make([]time.Duration, 0, len(rounds))
	for _, rd := range rounds {
		vals = append(vals, f(rd))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[len(vals)/2]
}

// CanonicalReport renders a report as canonical JSON with every wall-clock
// measurement (and the best-effort checkpoint error) zeroed — the only
// fields two executions of the same deterministic search can disagree on.
// Any two runs of one (Target, Options) pair, however interrupted, resumed
// or scheduled, produce byte-identical canonical reports; the server's
// soak and crash-recovery gates compare exactly these bytes.
func CanonicalReport(r *Report) ([]byte, error) {
	cp := *r
	cp.Elapsed, cp.FreeRunTime = 0, 0
	cp.CheckpointError = ""
	cp.RoundLog = make([]Round, len(r.RoundLog))
	for i, rd := range r.RoundLog {
		rd.InitTime, rd.RunTime, rd.DecideTime = 0, 0, 0
		cp.RoundLog[i] = rd
	}
	return json.Marshal(&cp)
}

// Reproduce searches for an injection that satisfies the target's oracle.
// It treats t as read-only (see Target), so concurrent calls may share one
// Target; the result depends only on (t, opts), never on scheduling.
func Reproduce(t *Target, opts Options) *Report {
	opts = opts.withDefaults()
	e := newEngine(t, opts)
	return e.run()
}

// IterReport is the outcome of an iterative multi-fault reproduction.
type IterReport struct {
	Reproduced bool
	// Scripts are the faults to inject together, in discovery order; the
	// last one satisfied the oracle with the earlier ones baked in.
	Scripts []inject.Instance
	Reports []*Report
}

// ReproduceIterative extends the single-fault workflow to failures caused
// by multiple causally-independent faults, automating the iterative usage
// §3 describes: when a search pass cannot reproduce the failure, the
// injection that brought the run log closest to the failure log is baked
// into the workload and the search repeats for the next fault.
func ReproduceIterative(t *Target, opts Options, maxFaults int) *IterReport {
	opts = opts.withDefaults()
	if maxFaults <= 0 {
		maxFaults = 2
	}
	out := &IterReport{}
	var baked []inject.Instance
	for pass := 0; pass < maxFaults; pass++ {
		e := newEngine(t, opts)
		e.baked = baked
		rep := e.run()
		out.Reports = append(out.Reports, rep)
		if rep.Reproduced {
			out.Reproduced = true
			out.Scripts = append(append([]inject.Instance(nil), baked...), *rep.Script)
			return out
		}
		if rep.BestPartial == nil {
			break
		}
		baked = append(baked, *rep.BestPartial)
	}
	out.Scripts = baked
	return out
}

// VerifyMulti replays a multi-fault script deterministically.
func VerifyMulti(t *Target, scripts []inject.Instance, seed int64) bool {
	plans := make([]inject.Plan, len(scripts))
	for i, s := range scripts {
		plans[i] = inject.Exact(s)
	}
	res := cluster.Execute(seed, inject.Multi(plans...), false, t.Workload, t.Horizon)
	return t.Oracle.Satisfied(res)
}

// Verify replays a reproduction script deterministically and reports
// whether the oracle is satisfied — workflow step 4.a's output check.
func Verify(t *Target, script inject.Instance, seed int64) bool {
	res := cluster.Execute(seed, inject.Exact(script), false, t.Workload, t.Horizon)
	return t.Oracle.Satisfied(res)
}
