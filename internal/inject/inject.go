// Package inject is the fault-injection runtime compiled into the target
// systems — the Go analog of the FIR instrumentation in Figure 3 of the
// paper. A fault site in a target system is an explicit hook:
//
//	if err := env.FI.Reach("dfs.datanode.receiveBlock.write", inject.IO); err != nil {
//		// handle like a real I/O failure
//	}
//
// Reach plays both instrumented roles at once: traceSite (record the
// dynamic occurrence, thread, and logical log position of the site) and
// throwIfEnabled (consult the round's injection plan and return a Fault
// error when the explorer wants one injected here).
//
// Faults are Go errors rather than thrown exceptions; the Kind mirrors the
// exception types of Table 5 (IOException, SocketException, ...).
//
// # Stable site-ID contract
//
// The site ID passed to Reach is a constant string literal and is the
// site's identity everywhere: the static analyzer extracts the same
// literal from the source (the causal graph's fault-site nodes carry it),
// the explorer keys its priority tables, trace events, and injection
// plans by it, and serialized analysis artifacts persist it across
// processes. Site IDs must therefore be unique within a target system and
// stable across runs and recompilations — renaming one invalidates saved
// artifacts, reproduction scripts, and golden traces that mention it. By
// convention an ID is a dotted path "<system>.<component>.<operation>"
// (e.g. "dfs.datanode.receiveBlock.write"), lowercase, never computed at
// runtime.
package inject

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"anduril/internal/des"
)

// Kind is the class of fault an injection produces, mirroring the exception
// types the paper injects.
type Kind string

// Fault kinds observed in the paper's 22-failure dataset.
const (
	IO           Kind = "IOError"
	Timeout      Kind = "TimeoutError"
	Socket       Kind = "SocketError"
	FileNotFound Kind = "FileNotFoundError"
	Interrupted  Kind = "InterruptedError"
	Connection   Kind = "ConnectionError"
	Checksum     Kind = "ChecksumError"
	State        Kind = "IllegalStateError"
)

// Fault is the error value injected at a fault site.
type Fault struct {
	Kind       Kind
	Site       string
	Occurrence int // 1-based dynamic occurrence of the site in this run
}

// Error renders the fault the way the production system's exception would
// appear in a log: the kind and the faulting frame, but nothing about the
// dynamic occurrence (timing never shows up in real logs).
func (f *Fault) Error() string {
	return fmt.Sprintf("%s at %s", f.Kind, f.Site)
}

// Is lets errors.Is match any *Fault against a prototype with the same
// Kind (Site empty in the target matches all sites).
func (f *Fault) Is(target error) bool {
	t, ok := target.(*Fault)
	if !ok {
		return false
	}
	return (t.Kind == "" || t.Kind == f.Kind) && (t.Site == "" || t.Site == f.Site)
}

// KindErr returns a prototype error for errors.Is matching by kind.
func KindErr(k Kind) error { return &Fault{Kind: k} }

// AsFault extracts the *Fault from an error chain, if present.
func AsFault(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// TraceEvent records one dynamic reach of a fault site.
type TraceEvent struct {
	Site       string
	Occurrence int      // 1-based per-site occurrence index
	Path       string   // canonical PathAddr string (path addressing only)
	Thread     string   // actor executing when the site was reached
	LogPos     int      // logical time: log records emitted before the reach
	Time       des.Time // virtual time of the reach
	Injected   bool     // whether this reach produced a fault
	Amp        int      // observed amplitude (partial pseudo-sites only)
}

// Instance names a dynamic fault candidate f_{i,j}: site i, occurrence j.
// Under path addressing, Path carries the candidate's canonical PathAddr
// string and takes precedence over the occurrence when matching; for pair
// pseudo-sites it carries the two member references (see pair.go). Path
// is empty in the default occurrence mode, so existing scripts, plans and
// checkpoints are unchanged.
type Instance struct {
	Site       string
	Occurrence int
	Path       string
}

// Plan decides which reaches of fault sites inject a fault during a round.
// The interface is sealed: the package's constructors (Exact, Window,
// Multi, PairWindow) build every plan.
type Plan interface {
	// Decide is consulted on every reach with the site, the reach's 1-based
	// occurrence in the run, and its canonical path string ("" unless the
	// run is path-addressed; see Runtime.PathActive). Returning true
	// injects a fault at this exact reach. The Runtime stops consulting
	// once the round's injection budget is spent.
	Decide(site string, occurrence int, path string) bool

	// carries reports what the plan's candidates address, computed once
	// at construction.
	carries() carried
}

// exactPlan injects at one precise dynamic instance.
type exactPlan struct {
	inst Instance
	c    carried
}

func (p exactPlan) Decide(site string, occ int, path string) bool {
	if p.inst.Path != "" {
		return path == p.inst.Path
	}
	return site == p.inst.Site && occ == p.inst.Occurrence
}

// Exact returns a plan injecting at exactly one dynamic instance — the
// deterministic reproduction script of step 4.a in the workflow. A pair
// instance decomposes into a Multi over its two members, so pair scripts
// replay through the ordinary single-instance machinery.
func Exact(inst Instance) Plan {
	if a, b, ok := PairMembers(inst); ok {
		return Multi(Exact(a), Exact(b))
	}
	p := exactPlan{inst: inst}
	p.c.add(inst)
	return p
}

func (p exactPlan) carries() carried { return p.c }

// windowPlan injects at the first reach that matches any candidate — the
// flexible priority window of §5.2.5. Path-addressed candidates are kept
// in a separate index keyed by their canonical path string (a path names
// one dynamic reach uniquely; the global occurrence of that reach may
// legitimately differ between the free run and an injection run).
type windowPlan struct {
	candidates map[Instance]bool
	byPath     map[string]bool
	c          carried
}

func (p windowPlan) Decide(site string, occ int, path string) bool {
	if path != "" && p.byPath[path] {
		return true
	}
	return p.candidates[Instance{Site: site, Occurrence: occ}]
}

// Window returns a plan that injects at whichever candidate instance is
// reached first in the round. What it carries is summarized over every
// candidate, path-addressed ones included.
func Window(candidates []Instance) Plan {
	m := make(map[Instance]bool, len(candidates))
	var paths map[string]bool
	var carry carried
	for _, c := range candidates {
		carry.add(c)
		if c.Path != "" {
			if paths == nil {
				paths = make(map[string]bool, len(candidates))
			}
			paths[c.Path] = true
			continue
		}
		m[c] = true
	}
	return windowPlan{m, paths, carry}
}

func (p windowPlan) carries() carried { return p.c }

// Budgeter lets a plan request more than one injection per round. The
// paper's ANDURIL performs a single injection per round (§3); the
// iterative multi-fault extension composes plans and raises the budget.
type Budgeter interface {
	Budget() int
}

// Resetter restores a stateful plan (PairPlan's commit, Multi's fired
// counters) to its pre-run state, so the round's retry under the next
// derived seed starts a fresh trial instead of replaying half-spent
// decision state. Stateless plans need not implement it.
type Resetter interface {
	Reset()
}

// multiPlan composes plans: each sub-plan may fire up to its own budget,
// so a round can carry several causally-independent faults.
type multiPlan struct {
	plans   []Plan
	fired   []int
	budgets []int
	c       carried
}

// planBudget is a plan's injection budget: a Budgeter's declared budget,
// 1 for any other non-nil plan, 0 for nil (never injects).
func planBudget(p Plan) int {
	if p == nil {
		return 0
	}
	if b, ok := p.(Budgeter); ok {
		return b.Budget()
	}
	return 1
}

// Multi composes the given plans into one plan whose injection budget is
// the sum of the sub-plans' budgets (1 each for plain plans, recursively
// summed for nested Multi plans). Each sub-plan injects at most its own
// budget.
func Multi(plans ...Plan) Plan {
	p := &multiPlan{
		plans:   plans,
		fired:   make([]int, len(plans)),
		budgets: make([]int, len(plans)),
	}
	for i, sub := range plans {
		p.budgets[i] = planBudget(sub)
		c := planCarries(sub)
		p.c.classes |= c.classes
		p.c.paths = p.c.paths || c.paths
	}
	return p
}

func (p *multiPlan) carries() carried { return p.c }

func (p *multiPlan) Decide(site string, occ int, path string) bool {
	for i, sub := range p.plans {
		if sub == nil || p.fired[i] >= p.budgets[i] {
			continue
		}
		if sub.Decide(site, occ, path) {
			p.fired[i]++
			return true
		}
	}
	return false
}

// Reset implements Resetter: clears the fired counters and resets any
// stateful sub-plans.
func (p *multiPlan) Reset() {
	for i := range p.fired {
		p.fired[i] = 0
	}
	for _, sub := range p.plans {
		if r, ok := sub.(Resetter); ok {
			r.Reset()
		}
	}
}

// Budget implements Budgeter: the sum of the sub-plans' budgets.
func (p *multiPlan) Budget() int {
	total := 0
	for _, b := range p.budgets {
		total += b
	}
	return total
}

// Runtime is the per-run injection state. The harness wires LogPos, Thread
// and Now to the run's logger and simulation before the workload starts.
type Runtime struct {
	LogPos func() int
	Thread func() string
	Now    func() des.Time

	// PathID and PathPrefix supply call-path context under path
	// addressing: PathID returns the dispatcher's current path node and
	// PathPrefix that node's canonical string form (cached by the
	// simulation). Nil hooks mean every reach is at root context.
	PathID     func() int32
	PathPrefix func(int32) string

	plan Plan

	sites      map[string]*siteRec
	pathCounts map[pathSiteKey]int // per-(path context, site) occurrence counters
	trace      []TraceEvent
	injected   []TraceEvent
	budget     int
	decisions  int
	decNanos   int64

	// KeepTrace controls whether every reach is recorded. The free run
	// keeps the full trace (the explorer needs the instance timeline);
	// injection rounds can disable it to keep rounds cheap, as §7 does.
	KeepTrace bool

	// active holds the classes whose pseudo-sites ReachPseudo counts,
	// traces and injects (see Active/Enable): the classes the plan itself
	// carries plus any the harness enables. By default none, so site-only
	// runs keep byte-identical traces and occurrence counts.
	active ClassSet

	// paths turns on path-sensitive addressing (see PathActive): every
	// reach is assigned a canonical PathAddr string built from the PathID/
	// PathPrefix hooks and handed to the plan. It is on when the plan
	// carries path-addressed instances, so replaying a path reproduction
	// script needs no option, or once the harness calls EnablePaths. Off —
	// the default — no per-reach path bookkeeping happens, so
	// occurrence-mode runs stay byte-identical.
	paths bool
}

// pathSiteKey keys the per-context occurrence counters of path mode.
type pathSiteKey struct {
	path int32
	site string
}

// NewRuntime creates an injection runtime executing the given plan
// (nil means never inject — the free run of workflow step 1). The
// injection budget is 1 per round, as in the paper, unless the plan is a
// Budgeter.
func NewRuntime(plan Plan) *Runtime {
	budget := 1
	if b, ok := plan.(Budgeter); ok {
		budget = b.Budget()
	}
	c := planCarries(plan)
	return &Runtime{
		plan:      plan,
		budget:    budget,
		sites:     make(map[string]*siteRec),
		KeepTrace: true,
		active:    c.classes,
		paths:     c.paths,
	}
}

// siteRec is one site's dynamic state: its occurrence counter and the
// fault kind it declared. Reach runs on every instrumented call in every
// simulated run, so the counter and kind share a single map entry probed
// once, instead of separate count and kind maps hashed per field.
type siteRec struct {
	count int
	kind  Kind
}

// site returns the record for a site, creating it on first reach.
func (r *Runtime) site(site string) *siteRec {
	rec := r.sites[site]
	if rec == nil {
		rec = &siteRec{}
		r.sites[site] = rec
	}
	return rec
}

// PathActive reports whether path-sensitive addressing is on this run.
// The harness layers that extend call paths on message sends skip all
// path bookkeeping when it is off.
func (r *Runtime) PathActive() bool { return r.paths }

// EnablePaths opts the run into path-sensitive addressing. A plan whose
// candidates are path-addressed enables it on its own.
func (r *Runtime) EnablePaths() { r.paths = true }

// pathFor builds the canonical path string of the current reach of a
// site and advances the per-(context, site) occurrence counter.
func (r *Runtime) pathFor(site string) string {
	var pid int32
	if r.PathID != nil {
		pid = r.PathID()
	}
	if r.pathCounts == nil {
		r.pathCounts = make(map[pathSiteKey]int)
	}
	k := pathSiteKey{pid, site}
	r.pathCounts[k]++
	n := r.pathCounts[k]
	prefix := ""
	if r.PathPrefix != nil {
		prefix = r.PathPrefix(pid)
	}
	if prefix == "" {
		return site + "#" + strconv.Itoa(n)
	}
	return prefix + ">" + site + "#" + strconv.Itoa(n)
}

// decide consults the plan for one reach. Every fault class — error
// sites and pseudo-sites alike — shares this single gate, so once
// the round's injection budget is spent no class consults the plan
// again: one Decide stream per round, short-circuited uniformly.
func (r *Runtime) decide(site string, occ int, path string) bool {
	if r.plan == nil || len(r.injected) >= r.budget {
		return false
	}
	start := time.Now()
	inject := r.plan.Decide(site, occ, path)
	r.decNanos += time.Since(start).Nanoseconds()
	r.decisions++
	return inject
}

// record stamps and stores the trace event for one reach.
func (r *Runtime) record(site string, occ int, path string, inject bool) {
	r.recordAmp(site, occ, path, inject, 0)
}

// recordAmp is record with an observed amplitude, used by the
// pseudo-sites to carry the payload length of the perturbed call into
// the free-run trace (the explorer calibrates candidate enumeration
// from it).
func (r *Runtime) recordAmp(site string, occ int, path string, inject bool, amp int) {
	ev := TraceEvent{Site: site, Occurrence: occ, Path: path, Injected: inject, Amp: amp}
	if r.LogPos != nil {
		ev.LogPos = r.LogPos()
	}
	if r.Thread != nil {
		ev.Thread = r.Thread()
	}
	if r.Now != nil {
		ev.Time = r.Now()
	}
	if r.KeepTrace {
		if r.trace == nil {
			// A kept trace records every reach of the run — hundreds of
			// events. Start sized for a typical free run so the append
			// doubling does not copy the trace several times (lazily, so
			// the many non-keeping round runtimes never pay for it).
			r.trace = make([]TraceEvent, 0, 512)
		}
		r.trace = append(r.trace, ev)
	}
	if inject {
		r.injected = append(r.injected, ev)
	}
}

// Reach is the instrumented hook at a fault site. It records the dynamic
// occurrence and returns a non-nil *Fault if the plan injects here.
func (r *Runtime) Reach(site string, kind Kind) error {
	rec := r.site(site)
	rec.count++
	rec.kind = kind
	occ := rec.count

	path := ""
	if r.paths {
		path = r.pathFor(site)
	}
	inject := r.decide(site, occ, path)

	if r.KeepTrace || inject {
		r.record(site, occ, path, inject)
	}

	if inject {
		return &Fault{Kind: kind, Site: site, Occurrence: occ}
	}
	return nil
}

// Trace returns the recorded reaches (empty if KeepTrace was off).
func (r *Runtime) Trace() []TraceEvent { return r.trace }

// Injected returns the reach at which the round's (first) fault was
// injected, if any.
func (r *Runtime) Injected() (TraceEvent, bool) {
	if len(r.injected) == 0 {
		return TraceEvent{}, false
	}
	return r.injected[0], true
}

// InjectedAll returns every injected reach of the round (more than one
// only under a Multi plan).
func (r *Runtime) InjectedAll() []TraceEvent { return r.injected }

// Counts returns a copy of the per-site dynamic occurrence counts for the
// run. The copy is the caller's to keep: mutating it does not disturb the
// runtime's internal numbering, so subsequent Reach/Decide calls keep
// counting from the true occurrence.
func (r *Runtime) Counts() map[string]int {
	out := make(map[string]int, len(r.sites))
	for site, rec := range r.sites {
		out[site] = rec.count
	}
	return out
}

// Kind reports the fault kind a site declared when reached.
func (r *Runtime) Kind(site string) (Kind, bool) {
	rec, ok := r.sites[site]
	if !ok {
		return "", false
	}
	return rec.kind, true
}

// Decisions returns how many injection requests the plan was consulted for
// and the total decision latency — the "Inject. Req." and latency columns
// of Table 4.
func (r *Runtime) Decisions() (count int, total time.Duration) {
	return r.decisions, time.Duration(r.decNanos)
}
