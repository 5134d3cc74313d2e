// Command perfbench is the repository benchmark: it drives the engine
// (core.Reproduce over the failures dataset) and the daemon (server.Open
// + Handler over loopback HTTP) through their public functions, checks
// every output, and prints one JSON result line. Run it from the
// repository root through run.sh:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"anduril/internal/core"
	"anduril/internal/server"
)

// setupRuns is how many cold set-ups setup_s takes the median of.
const setupRuns = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricMap map[string]metric

func (m metricMap) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type output struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricMap `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root: goldens and ledgers are read from here
	work     string // scratch directory for daemon data dirs
	clients  int    // nproc: daemon workers and clients
}

func main() {
	var c config
	var traceFlag int
	var probe bool
	flag.StringVar(&c.workload, "workload", "", "sweep, heavy or daemon")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed")
	flag.IntVar(&c.seconds, "seconds", 20, "nominal run length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced, layer-attributed run")
	flag.StringVar(&c.work, "work", "perfbench/.work", "scratch directory (removed on exit)")
	flag.BoolVar(&probe, "setup-probe", false, "internal: perform one cold set-up and report it")
	flag.Parse()
	c.trace = traceFlag == 1
	c.clients = runtime.NumCPU()
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	c.root = root
	if c.workload != "sweep" && c.workload != "heavy" && c.workload != "daemon" {
		fatal(fmt.Errorf("unknown workload %q (want sweep, heavy or daemon)", c.workload))
	}
	if c.seconds < 1 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if probe {
		if err := setupProbe(c); err != nil {
			fatal(err)
		}
		fmt.Println("ready")
		return
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		fatal(err)
	}
	out, err := run(c)
	os.RemoveAll(c.work)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// workloadIDs lists the failures whose targets a workload's set-up builds.
func workloadIDs(w string) []string {
	var ids []string
	switch w {
	case "sweep":
		ids = sweepIDs()
	case "heavy":
		ids = heavyIDs()
	case "daemon":
		seen := map[string]bool{}
		for _, sp := range daemonPool() {
			if !seen[sp.Failure] {
				seen[sp.Failure] = true
				ids = append(ids, sp.Failure)
			}
		}
	}
	return ids
}

// setupProbe is one cold set-up in a fresh process: the workload's
// targets (static analysis and failure logs), plus for daemon a server
// opened on a fresh data dir and served on loopback.
func setupProbe(c config) error {
	if _, err := buildTargets(workloadIDs(c.workload)); err != nil {
		return err
	}
	if c.workload == "daemon" {
		return probeDaemon(filepath.Join(c.work, fmt.Sprintf("probe-%d", os.Getpid())), c.clients)
	}
	return nil
}

// measureSetup runs setupRuns set-up probes, one process each, and returns
// the median of their CPU time, from process start to set-up done (the
// probe exits as soon as it has reported ready). CPU time, like the search
// metrics, leaves out other guests' turns on a shared host's CPUs.
func measureSetup(c config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var took []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", c.workload, "--work", c.work)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return 0, fmt.Errorf("set-up probe failed: %v %v", rerr, werr)
		}
		ps := cmd.ProcessState
		took = append(took, (ps.UserTime() + ps.SystemTime()).Seconds())
	}
	return median(took), nil
}

func run(c config) (*output, error) {
	g, err := loadGoldens(c.root, workloadIDs(c.workload))
	if err != nil {
		return nil, fmt.Errorf("load goldens: %w", err)
	}
	out := &output{Metrics: metricMap{}}
	if !c.trace {
		s, err := measureSetup(c)
		if err != nil {
			return nil, err
		}
		out.Metrics.set("setup_s", s, "s")
	}
	buildStart := time.Now()
	ts, err := buildTargets(workloadIDs(c.workload))
	if err != nil {
		return nil, err
	}
	buildMS := float64(time.Since(buildStart).Microseconds()) / 1e3
	chk := newChecker(ts, g)
	switch c.workload {
	case "sweep", "heavy":
		err = runSearchWorkload(c, ts, chk, buildMS, out)
	case "daemon":
		err = runDaemonWorkload(c, ts, chk, buildMS, out)
	}
	if err != nil {
		return nil, err
	}
	out.Correct = out.Failed == 0
	if !c.trace {
		out.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")
		printMetrics(c, out)
	}
	return out, nil
}

// region measures one timed region's allocations and GC share.
type region struct {
	mem memSnap
	cpu cpuSnap
}

func startRegion() region {
	runtime.GC()
	return region{mem: readMem(), cpu: readCPU()}
}

func (r region) stop() (mallocs, bytes uint64, gc float64) {
	m := readMem()
	return m.mallocs - r.mem.mallocs, m.bytes - r.mem.bytes, gcFrac(r.cpu, readCPU())
}

// chunk is one pass (sweep, heavy) or epoch (daemon) of a run: the same
// work as every other chunk of the run, in another order. Its times are
// the searches' own CPU time for sweep and heavy (runSearchWorkload) and
// wall time for daemon.
type chunk struct {
	lat    []float64 // per-operation time, ms
	busy   time.Duration
	timeNS float64 // time of the operations that executed searches
	rounds int     // rounds of those searches
}

// endToEnd fills the metrics shared by every workload. Rates and the
// median latency are medians over the run's chunks, and the tail a median
// over groups of them (runTail), which discounts bursts of noise from
// other tenants of the machine. Rounds and allocations are totals over
// the run.
func endToEnd(m metricMap, clock string, chunks []chunk, mallocs, bytes uint64) {
	var lats [][]float64
	var rate, p50, perRound []float64
	n := 0
	for _, c := range chunks {
		lats = append(lats, c.lat)
		n += len(c.lat)
		rate = append(rate, float64(len(c.lat))/c.busy.Seconds())
		p50 = append(p50, percentile(sortedCopy(c.lat), 500))
		perRound = append(perRound, c.timeNS/float64(c.rounds))
	}
	m.set("throughput_per_s", median(rate), "1/s")
	m.set("latency_ms_p50", median(p50), "ms")
	if v, p, all, groups := runTail(lats); groups > 0 {
		m.set("latency_ms_tail", v, "ms")
		fmt.Printf("latency_ms_tail (%s) is p%g of %d samples (%d beyond it), median over %d groups of chunks\n",
			clock, float64(p)/10, all, all-rank(all, p), groups)
	} else {
		fmt.Printf("latency_ms_tail (%s) omitted: no percentile has %d of %d samples beyond it\n", clock, tailMinBeyond, n)
	}
	m.set("ns_per_round", median(perRound), "ns")
	m.set("allocs_per_repro", float64(mallocs)/float64(n), "count")
	m.set("alloc_mb_per_repro", float64(bytes)/float64(n)/1e6, "MB")
}

func okFrac(out *output) float64 {
	return float64(out.Attempted-out.Failed) / float64(out.Attempted)
}

func runSearchWorkload(c config, ts map[string]*core.Target, chk *checker, buildMS float64, out *output) error {
	p, nominal := sweepPool(), sweepPassSeconds
	if c.workload == "heavy" {
		p, nominal = heavyPool(), heavyPassSeconds
	}
	list := searchList(p, c.seed, passes(c.seconds, nominal))
	if c.trace {
		return tracedSearches(c, ts, chk, list, buildMS, out)
	}

	reg := startRegion()
	results := runSearches(ts, list, nil)
	mallocs, bytes, _ := reg.stop()

	// The search metrics are in the searches' own CPU time
	// (threadCPUTime): on a shared host the wall clock also counts other
	// guests' turns on the CPUs, which drift by a third over minutes. The
	// wall-clock figures are printed beside.
	chunks := make([]chunk, 0, len(results)/len(p))
	walls := make([]chunk, 0, len(results)/len(p))
	rounds := 0
	for i, r := range results {
		if i%len(p) == 0 {
			chunks = append(chunks, chunk{})
			walls = append(walls, chunk{})
		}
		c, w := &chunks[len(chunks)-1], &walls[len(walls)-1]
		c.lat = append(c.lat, float64(r.cpu.Nanoseconds())/1e6)
		c.busy += r.cpu
		c.timeNS += float64(r.cpu.Nanoseconds())
		c.rounds += r.rep.Rounds
		w.lat = append(w.lat, float64(r.wall.Nanoseconds())/1e6)
		w.busy += r.wall
		w.timeNS += float64(r.wall.Nanoseconds())
		w.rounds += r.rep.Rounds
		rounds += r.rep.Rounds
	}
	wall := metricMap{}
	endToEnd(wall, "wall clock", walls, mallocs, bytes)
	fmt.Printf("wall clock: throughput %.4f/s, p50 %.4f ms, tail %.4f ms, ns/round %.0f\n",
		wall["throughput_per_s"].Value, wall["latency_ms_p50"].Value, wall["latency_ms_tail"].Value, wall["ns_per_round"].Value)
	out.Attempted = len(results)
	out.Failed = checkAll(chk, results)
	endToEnd(out.Metrics, "search CPU time", chunks, mallocs, bytes)
	out.Metrics.set("rounds_per_repro", float64(rounds)/float64(len(results)), "count")
	out.Metrics.set("ok_frac", okFrac(out), "ratio")
	return nil
}

// checkAll checks every result and returns how many failed.
func checkAll(chk *checker, results []result) int {
	failed := 0
	for _, r := range results {
		if err := chk.check(r.s, r.rep); err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "check failed:", err)
		}
	}
	return failed
}

// reference is the serial in-process run of one daemon spec.
type reference struct {
	canon  []byte
	wallMS float64
	rounds int
	err    error // a failed check of the search itself
}

// references runs every distinct daemon spec serially in-process, outside
// any timed region: the daemon's canonical reports must equal these, and
// the searches themselves pass the checks every search does. rec, when
// non-nil, attributes the searches to layers.
func references(ts map[string]*core.Target, chk *checker, specs []server.Spec, rec *recorder) (map[string]reference, error) {
	refs := map[string]reference{}
	for _, sp := range specs {
		t := ts[sp.Failure]
		if rec != nil {
			t = rec.target(t)
			rec.begin()
		}
		start := time.Now()
		rep := core.Reproduce(t, sp.Options())
		wall := time.Since(start)
		if rec != nil {
			rec.end(rep, wall)
		}
		canon, err := core.CanonicalReport(rep)
		if err != nil {
			return nil, err
		}
		refs[sp.Key()] = reference{
			canon:  canon,
			wallMS: float64(wall.Nanoseconds()) / 1e6,
			rounds: rep.Rounds,
			err:    chk.check(search{Failure: sp.Failure, Seed: sp.Seed}, rep),
		}
	}
	return refs, nil
}

func runDaemonWorkload(c config, ts map[string]*core.Target, chk *checker, buildMS float64, out *output) error {
	var rec *recorder
	if c.trace {
		rec = newRecorder()
	}
	refs, err := references(ts, chk, daemonPool(), rec)
	if err != nil {
		return err
	}
	epochs := daemonList(c.seed, passes(c.seconds, daemonEpochSecond))
	if c.trace {
		return tracedDaemon(c, ts, epochs, refs, rec, buildMS, out)
	}

	reg := startRegion()
	res, err := daemon(c.work, epochs, c.clients, canonical(refs), false)
	if err != nil {
		return err
	}
	mallocs, bytes, _ := reg.stop()
	if err := daemonGone(c.work); err != nil {
		return err
	}
	out.Attempted = len(res.subs)
	out.Failed = countFailed(res.subs, refs)
	chunks := make([]chunk, len(epochs))
	execRounds, executed, i := 0, 0, 0
	for e, ep := range epochs {
		c := &chunks[e]
		c.busy = res.epochs[e]
		for range ep {
			s := res.subs[i]
			i++
			c.lat = append(c.lat, float64(s.latency.Nanoseconds())/1e6)
			if !s.deduped {
				executed++
				c.timeNS += float64(s.latency.Nanoseconds())
				c.rounds += refs[s.key].rounds
				execRounds += refs[s.key].rounds
			}
		}
	}
	endToEnd(out.Metrics, "wall clock", chunks, mallocs, bytes)
	// rounds_per_repro counts the searches the daemon executed, not the
	// deduplicated submissions that shared them.
	out.Metrics.set("rounds_per_repro", float64(execRounds)/float64(executed), "count")
	out.Metrics.set("ok_frac", okFrac(out), "ratio")
	return nil
}

// canonical maps job keys to the reference canonical reports.
func canonical(refs map[string]reference) map[string][]byte {
	out := make(map[string][]byte, len(refs))
	for k, r := range refs {
		out[k] = r.canon
	}
	return out
}

// countFailed counts the submissions that failed a check. A job whose
// serial reference failed one (not reproduced, script not replaying,
// golden mismatch) fails with it.
func countFailed(subs []submission, refs map[string]reference) int {
	n := 0
	for i := range subs {
		s := &subs[i]
		if err := refs[s.key].err; err != nil && s.err == "" {
			s.err = err.Error()
		}
		if s.err != "" {
			n++
			fmt.Fprintf(os.Stderr, "check failed: %s@%d: %s\n", s.spec.Failure, s.spec.Seed, s.err)
		}
	}
	return n
}

// daemonGone reports an error if a daemon data dir outlived its epoch.
func daemonGone(work string) error {
	left, err := filepath.Glob(filepath.Join(work, "daemon-*"))
	if err != nil {
		return err
	}
	if len(left) > 0 {
		return errors.New("daemon data dirs left behind: " + fmt.Sprint(left))
	}
	return nil
}

// printMetrics prints the end-to-end metrics by name and unit, with the
// tail's percentile and sample count.
func printMetrics(c config, out *output) {
	fmt.Printf("workload %s seed %d: %d operations, %d failed\n", c.workload, c.seed, out.Attempted, out.Failed)
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-20s %14.4f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
}
