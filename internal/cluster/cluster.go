// Package cluster wires one simulated run together: the DES kernel, run
// logger, fault-injection runtime, network and disk. Every explorer round
// (workflow steps 1 and 3) is one Execute call with a fresh Env, so rounds
// are hermetic and replayable.
package cluster

import (
	"context"
	"fmt"
	"strings"

	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/logdiff"
	"anduril/internal/logging"
	"anduril/internal/simdisk"
	"anduril/internal/simnet"
)

// Env is the environment a target system runs in for one round.
type Env struct {
	Sim  *des.Sim
	Log  *logging.Log
	FI   *inject.Runtime
	Net  *simnet.Net
	Disk *simdisk.Disk

	nodes       map[string]NodeControl
	convergence func() Convergence
}

// Convergence is an eventually-consistent target's self-report of replica
// agreement: whether every replica currently agrees with the acknowledged
// client state, and the virtual time at which the current agreement began.
// Oracles judge it with oracle.ConvergedWithin — "the replicas converged,
// and did so before the bound" — instead of an immediate invariant check.
type Convergence struct {
	Tracked   bool     // a probe was registered for this run
	Converged bool     // replicas agree with the expected state at the end
	Since     des.Time // virtual time the current agreement began
}

// RegisterConvergence installs the run's convergence probe. Eventually-
// consistent targets call it during workload construction; the probe is
// read once when the round is snapshotted, so it must be cheap and must
// not mutate system state.
func (e *Env) RegisterConvergence(probe func() Convergence) { e.convergence = probe }

// NodeControl is how a target system exposes a node to crash/restart
// environment faults: Crash tears the node's runtime state down (stop
// its loops, drop in-memory state), Restart brings it back with
// whatever state survives a real process crash. The network down-state
// around the outage is managed by the environment; the controls only
// handle the system-level teardown and recovery.
type NodeControl struct {
	Crash   func()
	Restart func()
}

// RegisterNode registers the crash/restart controls for a named node.
// Workloads call it during construction; nodes without controls still
// crash (the environment toggles their network down-state) but keep
// their runtime loops, which models a network-isolated rather than a
// killed process.
func (e *Env) RegisterNode(name string, ctl NodeControl) { e.nodes[name] = ctl }

// crashNode executes a crash environment fault at the cluster level:
// network down + system teardown now, restart + network up after the
// outage. It runs restart even without a registered control so the
// node's peers see it return.
func (e *Env) crashNode(node string, restartAfter des.Time) {
	ctl := e.nodes[node]
	e.Net.SetDown(node, true)
	if ctl.Crash != nil {
		ctl.Crash()
	}
	e.Sim.Post("env-restart", restartAfter, func() {
		e.Net.SetDown(node, false)
		if ctl.Restart != nil {
			ctl.Restart()
		}
		e.Log.Infof("env: node %s restarted", node)
	})
}

// NewEnv builds a fully-wired environment. seed drives all nondeterminism
// in the round; plan is the round's injection plan (nil = free run).
func NewEnv(seed int64, plan inject.Plan) *Env {
	sim := des.New(seed)
	lg := logging.New(sim)
	fi := inject.NewRuntime(plan)
	fi.LogPos = lg.Pos
	fi.Thread = func() string {
		if c := sim.Current(); c != "" {
			return c
		}
		return "main"
	}
	fi.Now = sim.Now
	fi.PathID = sim.CurPath
	fi.PathPrefix = sim.PathString
	if fi.PathActive() {
		// Replaying a path-addressed script needs no flag, mirroring the
		// pseudo-site class auto-enable: the runtime found path-addressed
		// candidates in the plan itself.
		sim.EnablePathTracking()
	}
	net := simnet.New(sim, fi, lg, des.Millisecond, 4*des.Millisecond)
	disk := simdisk.New(fi, lg)
	env := &Env{Sim: sim, Log: lg, FI: fi, Net: net, Disk: disk, nodes: make(map[string]NodeControl)}
	net.OnCrash = env.crashNode
	return env
}

// ExecOption configures an Execute/TryExecute round beyond the core
// parameters.
type ExecOption func(*Env)

// WithFaultClasses opts the round into the given classes'
// pseudo-sites: the network and disk count (and can inject at) their
// instances. Off by default so site-only rounds keep byte-identical
// traces; plans that already carry pseudo-site instances enable their
// classes on their own (see inject.Runtime.Enable), so this option
// matters for free runs and mixed windows.
func WithFaultClasses(s inject.ClassSet) ExecOption {
	return func(e *Env) { e.FI.Enable(s) }
}

// WithPathAddressing opts the round into path-sensitive injection
// addressing: the kernel tracks the distributed call tree, and every
// reach is assigned a canonical PathAddr string (inject.TraceEvent.Path).
// Off by default so occurrence-mode rounds do no path bookkeeping; plans
// that already carry path-addressed instances enable it on their own.
func WithPathAddressing() ExecOption {
	return func(e *Env) {
		e.Sim.EnablePathTracking()
		e.FI.EnablePaths()
	}
}

// Result snapshots what a round produced: the observables the explorer
// feeds on and the state the oracle judges.
type Result struct {
	Env         *Env
	Entries     []logging.Entry   // the round's log
	Blocked     []string          // actors stuck on conditions at the end
	Injected    inject.TraceEvent // the injected reach, if any
	DidInject   bool
	Trace       []inject.TraceEvent // full reach trace (free runs only)
	Counts      map[string]int      // per-site dynamic occurrence counts
	Events      int                 // DES events executed
	Convergence Convergence         // replica-agreement probe (eventual-consistency targets)
}

// Workload builds a system inside env and schedules its driver; Execute
// then runs the simulation.
type Workload func(env *Env)

// Execute performs one round: construct env, run the workload to the
// horizon (or quiescence), snapshot the result.
func Execute(seed int64, plan inject.Plan, keepTrace bool, w Workload, horizon des.Time, opts ...ExecOption) *Result {
	env := NewEnv(seed, plan)
	env.FI.KeepTrace = keepTrace
	for _, opt := range opts {
		opt(env)
	}
	w(env)
	n := env.Sim.Run(horizon)
	return snapshot(env, n, keepTrace)
}

// Failure classes a TrialError carries, in the order the harness checks
// them: a panic out of the target system, a simulation that exhausted its
// event budget (livelock watchdog), an oracle that panicked judging the
// result, and an externally-cancelled run.
const (
	ClassPanic       = "panic"
	ClassEventBudget = "event-budget"
	ClassOracle      = "oracle"
	ClassInterrupted = "interrupted"
)

// TrialError describes why a trial could not produce a judgeable result.
// Class is one of the Class* constants; Detail is human-readable context
// (the panic value, the budget size, ...). Seed and Actor identify the
// subject: which trial seed produced the failure and — for panics —
// which actor (node thread) was executing when it fired, so the record
// pinpoints the node to blame.
type TrialError struct {
	Class  string
	Detail string
	Seed   int64
	Actor  string
}

func (e *TrialError) Error() string {
	msg := e.Class + ": " + e.Detail
	if e.Actor != "" {
		msg += " (actor " + e.Actor + ")"
	}
	if e.Seed != 0 {
		msg += fmt.Sprintf(" [seed %d]", e.Seed)
	}
	return msg
}

// TryExecute is Execute hardened for untrusted target systems: a panic in
// the workload or simulation is recovered into a *TrialError (class
// "panic") instead of killing the process, eventBudget > 0 bounds the
// number of DES events (class "event-budget" on exhaustion, so a
// livelocked workload cannot hang a round), and a cancelled ctx interrupts
// the simulation (class "interrupted"). On error the returned Result holds
// whatever the environment had produced so far — enough for diagnostics,
// not a judgeable round.
func TryExecute(ctx context.Context, seed int64, plan inject.Plan, keepTrace bool, w Workload, horizon des.Time, eventBudget int, opts ...ExecOption) (res *Result, err error) {
	env := NewEnv(seed, plan)
	env.FI.KeepTrace = keepTrace
	env.Sim.EventBudget = eventBudget
	for _, opt := range opts {
		opt(env)
	}
	if ctx != nil {
		env.Sim.Watch(ctx)
	}
	defer func() {
		if p := recover(); p != nil {
			res = snapshot(env, 0, keepTrace)
			// A panic unwinds past the kernel's current-actor reset, so
			// Current() still names the actor whose event panicked.
			err = &TrialError{Class: ClassPanic, Detail: fmt.Sprint(p), Seed: seed, Actor: env.Sim.Current()}
		}
	}()
	w(env)
	n := env.Sim.Run(horizon)
	res = snapshot(env, n, keepTrace)
	switch {
	case env.Sim.Interrupted():
		err = &TrialError{Class: ClassInterrupted, Detail: "run cancelled", Seed: seed}
	case env.Sim.BudgetExhausted():
		err = &TrialError{Class: ClassEventBudget, Detail: fmt.Sprintf("exceeded %d events", eventBudget), Seed: seed}
	}
	return res, err
}

// snapshot captures what a finished (or aborted) round produced.
func snapshot(env *Env, n int, keepTrace bool) *Result {
	res := &Result{
		Env:     env,
		Entries: env.Log.Entries(),
		Blocked: env.Sim.Blocked(),
		Counts:  env.FI.Counts(),
		Events:  n,
	}
	if keepTrace {
		res.Trace = env.FI.Trace()
	}
	if env.convergence != nil {
		res.Convergence = env.convergence()
	}
	if ev, ok := env.FI.Injected(); ok {
		res.Injected = ev
		res.DidInject = true
	}
	return res
}

// RenderLog renders the round's log as production-style text.
func (r *Result) RenderLog() string { return r.Env.Log.Render() }

// LogContains reports whether any log message (sanitized) contains the
// sanitized needle — the basic symptom check oracles use.
func (r *Result) LogContains(needle string) bool {
	sn := logdiff.Sanitize(needle)
	for _, e := range r.Entries {
		if strings.Contains(logdiff.Sanitize(e.Msg), sn) {
			return true
		}
	}
	return false
}

// LogContainsExact reports whether any log message contains the needle
// verbatim (digit-sensitive, unlike LogContains).
func (r *Result) LogContainsExact(needle string) bool {
	for _, e := range r.Entries {
		if strings.Contains(e.Msg, needle) {
			return true
		}
	}
	return false
}

// BlockedOn reports whether some actor is stuck on the given condition
// label — the "stack trace shows thread stuck at X" symptom.
func (r *Result) BlockedOn(label string) bool { return r.Env.Sim.BlockedOn(label) }
