package main

import (
	"fmt"
	"runtime"
	"time"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/logging"
	"anduril/internal/oracle"
)

// buildTargets builds the explorer targets for ids, cold: static analysis
// and the failure log of each.
func buildTargets(ids []string) (map[string]*core.Target, error) {
	ts := make(map[string]*core.Target, len(ids))
	for _, id := range ids {
		sc, ok := failures.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown failure %s", id)
		}
		t, err := sc.BuildTarget()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		ts[id] = t
	}
	return ts, nil
}

// result is one completed search.
type result struct {
	s    search
	rep  *core.Report
	wall time.Duration
	cpu  time.Duration // the search's CPU time (threadCPUTime)
}

// runSearches runs list one search at a time under default options and
// returns every report with its wall and CPU time. With rec non-nil each
// search runs against rec's wrapped targets and is attributed to layers.
func runSearches(ts map[string]*core.Target, list []search, rec *recorder) []result {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := make([]result, 0, len(list))
	for _, s := range list {
		t := ts[s.Failure]
		if rec != nil {
			t = rec.target(t)
			rec.begin()
		}
		cpu := threadCPUTime()
		start := time.Now()
		rep := core.Reproduce(t, core.Options{Seed: s.Seed})
		wall := time.Since(start)
		cpu = threadCPUTime() - cpu
		if rec != nil {
			rec.end(rep, wall)
		}
		out = append(out, result{s: s, rep: rep, wall: wall, cpu: cpu})
	}
	return out
}

// call is one trial as the wrappers saw it, in nanoseconds since the
// search started. The oracle fields are zero for the free run.
type call struct {
	wIn, wOut, oIn, oOut int64
	judged               bool
}

// captured is a trial log kept for the logdiff replay.
type captured struct {
	failure string
	entries []logging.Entry
}

// recorder attributes searches to layers from outside the program: it
// wraps each target's Workload callback (system construction) and
// Oracle.Check, and combines their timestamps with the per-round timings
// the Report already carries.
type recorder struct {
	wrapped map[*core.Target]*core.Target
	start   time.Time
	calls   []call
	judged  int // judged trials of the current search, for log sampling

	logs      []captured
	logBudget map[string]int

	searches, irregular int
	rounds, hitRounds   int
	inconclusive        int
	trials, judges      int
	events, lines       int64
	injectReqs          int64
	candidates, obs     int64

	freeRun, initT, build, sim, check, decide time.Duration

	// Searches without trial retries, whose time splits exactly into
	// components (see end).
	regularRounds                                      int
	regularWall, regFreeRun, regInit, regBuild, regSim time.Duration
	regCheck, setup, feedback, residual                time.Duration
}

// maxLogsPerFailure bounds the trial logs kept per failure for replay.
const maxLogsPerFailure = 8

func newRecorder() *recorder {
	return &recorder{wrapped: map[*core.Target]*core.Target{}, logBudget: map[string]int{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.start)) }

// target returns t with its Workload and Oracle wrapped. Verification and
// reference runs use the unwrapped target.
func (r *recorder) target(t *core.Target) *core.Target {
	if w, ok := r.wrapped[t]; ok {
		return w
	}
	workload, check := t.Workload, t.Oracle.Check
	cp := *t
	cp.Workload = func(env *cluster.Env) {
		c := call{wIn: r.now()}
		workload(env)
		c.wOut = r.now()
		r.calls = append(r.calls, c)
	}
	cp.Oracle = oracle.Oracle{Name: t.Oracle.Name, Check: func(res *cluster.Result) bool {
		in := r.now()
		ok := check(res)
		out := r.now()
		if n := len(r.calls); n > 0 {
			c := &r.calls[n-1]
			c.oIn, c.oOut, c.judged = in, out, true
		}
		r.events += int64(res.Events)
		r.lines += int64(len(res.Entries))
		r.judged++
		if r.judged%4 == 1 && r.logBudget[t.ID] < maxLogsPerFailure {
			r.logBudget[t.ID]++
			r.logs = append(r.logs, captured{failure: t.ID, entries: res.Entries})
		}
		return ok
	}}
	r.wrapped[t] = &cp
	return &cp
}

func (r *recorder) begin() {
	r.calls = r.calls[:0]
	r.judged = 0
	r.start = time.Now()
}

// end attributes one finished search. Per round k (1-based) the wrappers
// give trial k's Workload entry and Oracle return; the report gives the
// round's rank+select time (InitTime) and trial time (RunTime, which
// also covers building the cluster.Env before Workload runs). Then
//
//	setup       = Workload entry of round 1 - free run - InitTime(1) - env(1)
//	feedback(k) = Workload entry of round k+1 - Oracle return of round k
//	              - InitTime(k+1) - env(k+1)   (search end for the last round)
//	env(k)      = RunTime(k) - (Oracle return - Workload entry of round k)
//
// and the residual is wall minus free run, setup and every round's
// rank+select, build, sim, oracle and feedback — the env construction
// and engine bookkeeping no layer above claims. A search with trial
// retries (inconclusive rounds) only adds to the per-trial sums.
func (r *recorder) end(rep *core.Report, wall time.Duration) {
	r.searches++
	r.freeRun += rep.FreeRunTime
	r.rounds += len(rep.RoundLog)
	r.inconclusive += rep.InconclusiveRounds
	r.candidates += int64(rep.CandidateInstances)
	r.obs += int64(rep.RelevantObservables)
	for _, rd := range rep.RoundLog {
		r.initT += rd.InitTime
		r.decide += rd.DecideTime
		r.injectReqs += int64(rd.InjectReqs)
		if rd.Injected != nil {
			r.hitRounds++
		}
	}
	var build, sim, check time.Duration
	for _, c := range r.calls {
		r.trials++
		build += time.Duration(c.wOut - c.wIn)
		if c.judged {
			r.judges++
			sim += time.Duration(c.oIn - c.wOut)
			check += time.Duration(c.oOut - c.oIn)
		}
	}
	r.build += build
	r.sim += sim
	r.check += check

	rounds := rep.RoundLog
	regular := len(rounds) > 0 && len(r.calls) == len(rounds)+1 && !r.calls[0].judged
	for k := 1; regular && k < len(r.calls); k++ {
		regular = r.calls[k].judged
	}
	if !regular {
		r.irregular++
		return
	}
	env := func(k int) int64 {
		c := r.calls[k]
		return int64(rounds[k-1].RunTime) - (c.oOut - c.wIn)
	}
	setup := r.calls[1].wIn - int64(rep.FreeRunTime) - int64(rounds[0].InitTime) - env(1)
	var feedback int64
	for k := 1; k <= len(rounds); k++ {
		next := int64(wall)
		if k < len(rounds) {
			next = r.calls[k+1].wIn - int64(rounds[k].InitTime) - env(k+1)
		}
		feedback += next - r.calls[k].oOut
	}
	var initT time.Duration
	for _, rd := range rounds {
		initT += rd.InitTime
	}
	roundBuild := build - time.Duration(r.calls[0].wOut-r.calls[0].wIn)
	r.regularRounds += len(rounds)
	r.regularWall += wall
	r.regFreeRun += rep.FreeRunTime
	r.regInit += initT
	r.regBuild += roundBuild
	r.regSim += sim
	r.regCheck += check
	r.setup += time.Duration(setup)
	r.feedback += time.Duration(feedback)
	r.residual += wall - rep.FreeRunTime - time.Duration(setup) - initT - roundBuild - sim - check - time.Duration(feedback)
}
