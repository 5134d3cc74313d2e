package core

// Checkpoint/resume for the explorer search. The engine periodically
// serializes its mutable search state — completed round, flexible-window
// size, observable feedback priorities I_k, the tried set, and the
// accumulated Report — into an atomically-written, versioned envelope
// (internal/checkpoint). Resume rebuilds everything else from scratch:
// the free run, observables, candidate sites, and distances are all
// deterministic functions of (Target, Options.Seed), and every round r
// runs under Seed+r, so a restored search continues exactly where the
// interrupted one stopped and produces the identical trace suffix and
// final report.
//
// The equivalence contract: interrupt a search at a checkpoint boundary
// (StopAfterRound a multiple of CheckpointEvery, or an external kill right
// after a checkpoint write), resume it, and the concatenation of the two
// JSONL traces is byte-identical to the uninterrupted run's trace — an
// interrupted search emits no outcome event, so its trace is a pure
// prefix. A kill between checkpoints loses only the rounds after the last
// write: resume re-executes them (deterministically), so the final report
// is still identical, but the concatenated trace repeats those rounds.
//
// Resume does not support iterative multi-fault passes (engine.baked):
// ReproduceIterative restarts its current pass from scratch instead.

import (
	"encoding/json"
	"fmt"
	"time"

	"anduril/internal/checkpoint"
	"anduril/internal/inject"
)

// searchKind and searchVersion identify the explorer checkpoint envelope.
// Version 3 added the partial fault class (a version-2 tried set may lack
// partial occurrence counters a version-3 search would have accumulated);
// version 2 added the addressing field and the pair fault class; version
// 1 envelopes predate path-sensitive addressing. Older versions are
// rejected loudly by the envelope layer rather than resumed into a
// different search.
const (
	searchKind    = "explorer-search"
	searchVersion = 3
)

// searchState is the serialized form of the engine's mutable search state
// after a completed round. Everything not here is reconstructed by the
// resumed free run.
type searchState struct {
	Target   string   `json:"target"`
	Strategy Strategy `json:"strategy"`
	Seed     int64    `json:"seed"`

	Round    int `json:"round"`  // completed rounds; resume starts at Round+1
	Window   int `json:"window"` // flexible-window size for the next round
	ObsCount int `json:"obs_count"`

	// FaultClasses records the resolved fault classes of the run in
	// canonical order; resuming with a different class set would search a
	// different space. Absent (nil) in pre-env checkpoints = site-only.
	FaultClasses []string `json:"fault_classes,omitempty"`

	// Addressing records the run's instance-addressing mode; absent means
	// occurrence addressing, the canonical default. Resuming a
	// path-addressed search in occurrence mode (or vice versa) would match
	// the tried set against different instance identities.
	Addressing string `json:"addressing,omitempty"`

	// Priorities are the feedback priorities I_k in observable order (the
	// deterministic order setup extracts them in).
	Priorities []int `json:"priorities"`

	// Tried maps site id -> sorted tried occurrences.
	Tried map[string][]int `json:"tried"`

	Report *Report `json:"report"`
}

// maybeCheckpoint writes the search state after the given completed round
// when checkpointing is enabled and the round lands on the interval.
// Writes are best-effort: the first failure is recorded on the report and
// the search continues.
func (e *engine) maybeCheckpoint(round, window int) {
	if e.o.Checkpoint == "" || round%e.o.CheckpointEvery != 0 {
		return
	}
	e.saveCheckpoint(round, window)
}

// forceCheckpoint writes the search state regardless of the interval — the
// engine's last act on an interrupt, so a gracefully-drained search resumes
// from the exact round it stopped at instead of re-executing everything
// since the last periodic write. Interrupts before the first completed
// round have no state worth persisting and are skipped.
func (e *engine) forceCheckpoint(round, window int) {
	if e.o.Checkpoint == "" || round < 1 {
		return
	}
	e.saveCheckpoint(round, window)
}

// saveCheckpoint flushes the caller's journal (Options.CheckpointFlush)
// and then persists the state for the given completed round.
func (e *engine) saveCheckpoint(round, window int) {
	if e.o.CheckpointFlush != nil {
		e.o.CheckpointFlush(round)
	}
	st := e.snapshotState(round, window)
	if err := checkpoint.Save(e.o.Checkpoint, searchKind, searchVersion, st); err != nil {
		if e.report.CheckpointError == "" {
			e.report.CheckpointError = err.Error()
		}
	}
}

// snapshotState captures the engine's mutable state in serializable form.
// The report is snapshotted with Interrupted cleared: the flag describes
// the dying run, not the checkpointed state, and the forced final write on
// interrupt happens after the engine marked the report — persisting the
// flag would make the resumed run believe it too was interrupted and
// suppress its trace outcome.
func (e *engine) snapshotState(round, window int) *searchState {
	rep := *e.report
	rep.Interrupted = false
	st := &searchState{
		Target: e.t.ID, Strategy: e.o.Strategy, Seed: e.o.Seed,
		Round: round, Window: window,
		ObsCount:     len(e.obs),
		FaultClasses: e.classes.Names(),
		Priorities:   make([]int, len(e.obs)),
		Tried:        map[string][]int{},
		Report:       &rep,
	}
	if e.classes == inject.ParseClasses(nil) {
		st.FaultClasses = nil // canonical site-only form, compatible with pre-env checkpoints
	}
	if e.o.Addressing != AddrOccurrence {
		st.Addressing = string(e.o.Addressing)
	}
	for i, o := range e.obs {
		st.Priorities[i] = o.priority
	}
	for _, s := range e.sites {
		if s.tried.Len() == 0 {
			continue
		}
		st.Tried[s.id] = s.tried.Occurrences()
	}
	return st
}

// CheckpointRound reports the completed round recorded by the search
// checkpoint at path. The server's crash recovery uses it to align its
// external trace journal with the checkpoint before resuming: the journal
// flushes strictly before each checkpoint write, so after a kill it may
// run ahead of the checkpoint and must be trimmed back to this round. ok
// is false when the file is missing, corrupt, or from a different
// checkpoint version — Resume would reject it anyway, so callers treat
// that as "start fresh".
func CheckpointRound(path string) (round int, ok bool) {
	st, err := loadSearchState(path)
	if err != nil {
		return 0, false
	}
	return st.Round, true
}

// loadSearchState reads and decodes an explorer checkpoint.
func loadSearchState(path string) (*searchState, error) {
	raw, err := checkpoint.Load(path, searchKind, searchVersion)
	if err != nil {
		return nil, err
	}
	st := &searchState{}
	if err := json.Unmarshal(raw, st); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint %s: %w", path, err)
	}
	return st, nil
}

// validate checks the checkpoint belongs to this (target, options) pair —
// resuming under a different seed or strategy would silently produce a
// different search, so it is an error instead.
func (st *searchState) validate(t *Target, opts Options) error {
	switch {
	case st.Target != t.ID:
		return fmt.Errorf("core: checkpoint is for target %q, resuming %q", st.Target, t.ID)
	case st.Strategy != opts.Strategy:
		return fmt.Errorf("core: checkpoint used strategy %q, resuming with %q", st.Strategy, opts.Strategy)
	case st.Seed != opts.Seed:
		return fmt.Errorf("core: checkpoint used seed %d, resuming with %d", st.Seed, opts.Seed)
	case inject.ParseClasses(st.FaultClasses) != resolveClasses(t, opts):
		return fmt.Errorf("core: checkpoint searched fault classes %v, resuming run resolves differently",
			inject.ParseClasses(st.FaultClasses).Names())
	case st.addressing() != opts.Addressing:
		return fmt.Errorf("core: checkpoint used %s addressing, resuming with %s", st.addressing(), opts.Addressing)
	case st.Round < 1:
		return fmt.Errorf("core: checkpoint has invalid round %d", st.Round)
	case st.Window < 1:
		return fmt.Errorf("core: checkpoint has invalid window %d", st.Window)
	case len(st.Priorities) != st.ObsCount:
		return fmt.Errorf("core: checkpoint carries %d priorities for %d observables", len(st.Priorities), st.ObsCount)
	case st.Report == nil:
		return fmt.Errorf("core: checkpoint has no report")
	}
	return nil
}

// addressing returns the checkpoint's recorded addressing mode, expanding
// the canonical absent form to the occurrence default.
func (st *searchState) addressing() Addressing {
	if st.Addressing == "" {
		return AddrOccurrence
	}
	return Addressing(st.Addressing)
}

// applyState restores the checkpointed search state onto a prepared
// engine. The free run must have produced the same observable and site
// universe the checkpoint was taken against; a mismatch means the target
// or dataset changed under the checkpoint and is an error.
func (e *engine) applyState() error {
	st := e.resume
	if len(e.obs) != st.ObsCount {
		return fmt.Errorf("core: checkpoint expects %d observables, free run produced %d — target or dataset changed", st.ObsCount, len(e.obs))
	}
	for i, p := range st.Priorities {
		e.obs[i].priority = p
	}
	for site, occs := range st.Tried {
		s, ok := e.siteIndex[site]
		if !ok {
			return fmt.Errorf("core: checkpoint tried unknown site %q — target or dataset changed", site)
		}
		for _, occ := range occs {
			s.tried.Add(occ)
		}
	}
	e.startRound = st.Round
	e.resumeWindow = st.Window
	e.report = st.Report
	return nil
}

// Resume continues a checkpointed search. opts must carry the same
// Strategy and Seed the interrupted run used (Window etc. likewise — the
// engine cannot verify every knob, only what the checkpoint records); the
// checkpoint at path names the last completed round, and the resumed
// search continues from the next one, producing the identical trace
// suffix and final report an uninterrupted run would have. Iterative
// multi-fault passes (ReproduceIterative) are not resumable.
func Resume(t *Target, opts Options, path string) (*Report, error) {
	opts = opts.withDefaults()
	st, err := loadSearchState(path)
	if err != nil {
		return nil, err
	}
	if err := st.validate(t, opts); err != nil {
		return nil, err
	}
	e := newEngine(t, opts)
	e.resume = st
	start := time.Now()
	if err := e.prepare(); err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	if err := e.applyState(); err != nil {
		return nil, err
	}
	e.explore()
	e.finish(start)
	return e.report, nil
}
