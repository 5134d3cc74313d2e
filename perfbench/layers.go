package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"anduril/internal/checkpoint"
	"anduril/internal/core"
	"anduril/internal/logdiff"
	"anduril/internal/server"
	"anduril/internal/trace"
)

// maxCheckpointReplays bounds the checkpoint.Save replays (each fsyncs
// twice) of one traced run.
const maxCheckpointReplays = 64

// tracedSearches is the traced run of sweep or heavy. Each search of the
// list runs twice, once plain and once against wrapped targets, in
// alternating order, so the tracing overhead compares like with like;
// then one daemon pass over the list's distinct searches measures the
// trace, checkpoint and server layers.
func tracedSearches(c config, ts map[string]*core.Target, chk *checker, list []search, buildMS float64, out *output) error {
	rec := newRecorder()
	var plain, traced []result
	reg := startRegion()
	for i, s := range list {
		one := []search{s}
		if i%2 == 0 {
			plain = append(plain, runSearches(ts, one, nil)...)
			traced = append(traced, runSearches(ts, one, rec)...)
		} else {
			traced = append(traced, runSearches(ts, one, rec)...)
			plain = append(plain, runSearches(ts, one, nil)...)
		}
	}
	_, _, gc := reg.stop()
	out.Attempted = len(plain) + len(traced)
	out.Failed = checkAll(chk, plain) + checkAll(chk, traced)
	var plainWall, tracedWall time.Duration
	for i := range plain {
		plainWall += plain[i].wall
		tracedWall += traced[i].wall
	}
	overhead := tracedWall.Seconds()/plainWall.Seconds() - 1
	fmt.Printf("traced run: %d searches took %.3fs traced against %.3fs untraced (overhead %+.2f%%)\n",
		len(list), tracedWall.Seconds(), plainWall.Seconds(), 100*overhead)

	// The daemon pass: each distinct search once, as a job whose options
	// equal the in-process defaults, so its canonical report must equal
	// the in-process one.
	walls := map[string][]float64{}
	refs := map[string]reference{}
	var specs []server.Spec
	for _, r := range plain {
		sp := server.Spec{Failure: r.s.Failure, Seed: r.s.Seed, MaxRounds: defaultMaxRounds}.Normalize()
		key := sp.Key()
		if _, ok := refs[key]; !ok {
			refs[key] = reference{canon: chk.canon[r.s], rounds: r.rep.Rounds, err: chk.errs[r.s]}
			specs = append(specs, sp)
		}
		walls[key] = append(walls[key], float64(r.wall.Nanoseconds())/1e6)
	}
	for k, w := range walls {
		ref := refs[k]
		ref.wallMS = median(w)
		refs[k] = ref
	}
	res, err := daemon(c.work, [][]server.Spec{specs}, c.clients, canonical(refs), true)
	if err != nil {
		return err
	}
	if err := daemonGone(c.work); err != nil {
		return err
	}
	out.Attempted += len(res.subs)
	out.Failed += countFailed(res.subs, refs)

	layerMetrics(out.Metrics, ts, rec, res, refs, buildMS, gc, overhead, c.work)
	if c.workload == "sweep" {
		return datasetTables(c, ts, chk, out)
	}
	return nil
}

// defaultMaxRounds is core's default round cap; daemon specs for the
// sweep and heavy searches set it so their options equal the defaults.
const defaultMaxRounds = 2000

// tracedDaemon is the traced run of daemon: every epoch runs twice on a
// fresh daemon, once plain and once reading each executed job's trace
// journal and checkpoint back before the data dir goes, in alternating
// order. The engine layers come from the serial reference searches,
// which ran wrapped.
func tracedDaemon(c config, ts map[string]*core.Target, epochs [][]server.Spec, refs map[string]reference, rec *recorder, buildMS float64, out *output) error {
	canon := canonical(refs)
	all := &daemonResult{}
	var plainActive time.Duration
	reg := startRegion()
	for e, ep := range epochs {
		one := [][]server.Spec{ep}
		var plain, traced *daemonResult
		var err error
		if e%2 == 0 {
			if plain, err = daemon(c.work, one, c.clients, canon, false); err == nil {
				traced, err = daemon(c.work, one, c.clients, canon, true)
			}
		} else {
			if traced, err = daemon(c.work, one, c.clients, canon, true); err == nil {
				plain, err = daemon(c.work, one, c.clients, canon, false)
			}
		}
		if err != nil {
			return err
		}
		plainActive += plain.active
		out.Attempted += len(plain.subs)
		out.Failed += countFailed(plain.subs, refs)
		all.subs = append(all.subs, traced.subs...)
		all.files = append(all.files, traced.files...)
		all.active += traced.active
		all.executions += traced.executions
		all.distinct += traced.distinct
	}
	_, _, gc := reg.stop()
	if err := daemonGone(c.work); err != nil {
		return err
	}
	out.Attempted += len(all.subs)
	out.Failed += countFailed(all.subs, refs)
	overhead := all.active.Seconds()/plainActive.Seconds() - 1
	fmt.Printf("traced run: %d submissions took %.3fs traced against %.3fs untraced (overhead %+.2f%%)\n",
		len(all.subs), all.active.Seconds(), plainActive.Seconds(), 100*overhead)
	layerMetrics(out.Metrics, ts, rec, all, refs, buildMS, gc, overhead, c.work)
	return nil
}

// layerMetrics fills the per-layer metrics from the recorder (engine
// layers), the daemon run (server, trace and checkpoint layers) and the
// replays, and prints how the search wall time splits.
func layerMetrics(m metricMap, ts map[string]*core.Target, rec *recorder, res *daemonResult, refs map[string]reference, buildMS, gc, overhead float64, work string) {
	us := func(d time.Duration, n int) float64 { return mean(float64(d.Nanoseconds())/1e3, n) }
	m.set("analysis.build_ms", buildMS, "ms")
	m.set("cluster.trials", float64(rec.trials), "count")
	m.set("cluster.build_us", us(rec.build, rec.trials), "us")
	m.set("cluster.sim_us", us(rec.sim, rec.judges), "us")
	m.set("cluster.free_run_ms", us(rec.freeRun, rec.searches)/1e3, "ms")
	m.set("des.events_per_trial", mean(float64(rec.events), rec.judges), "count")
	m.set("des.events_per_ms", ratio(float64(rec.events), float64(rec.sim.Nanoseconds())/1e6), "1/ms")
	m.set("inject.reqs_per_trial", mean(float64(rec.injectReqs), rec.rounds), "count")
	m.set("inject.decide_ns", mean(float64(rec.decide.Nanoseconds()), int(rec.injectReqs)), "ns")
	m.set("inject.hit_ratio", mean(float64(rec.hitRounds), rec.rounds), "ratio")
	m.set("logging.lines_per_trial", mean(float64(rec.lines), rec.judges), "count")
	m.set("oracle.check_us", us(rec.check, rec.judges), "us")
	regular := rec.searches - rec.irregular
	m.set("core.setup_ms", us(rec.setup, regular)/1e3, "ms")
	m.set("core.rank_select_us", us(rec.initT, rec.rounds), "us")
	m.set("core.feedback_us", us(rec.feedback, rec.regularRounds), "us")
	m.set("core.candidate_instances", mean(float64(rec.candidates), rec.searches), "count")
	m.set("core.observables", mean(float64(rec.obs), rec.searches), "count")
	m.set("core.inconclusive_frac", mean(float64(rec.inconclusive), rec.rounds), "ratio")
	m.set("core.residual_frac", ratio(rec.residual.Seconds(), rec.regularWall.Seconds()), "ratio")

	cmpUS, sanNS := replayLogdiff(ts, rec.logs)
	m.set("logdiff.compare_us", cmpUS, "us")
	m.set("logdiff.sanitize_ns", sanNS, "ns")

	encNS, traceBytes := replayTrace(res.files)
	m.set("trace.encode_ns_per_event", encNS, "ns")
	m.set("trace.bytes_per_job", traceBytes, "B")
	saveUS, ckBytes := replayCheckpoints(res.files, filepath.Join(work, "checkpoint-replay"))
	m.set("checkpoint.save_us", saveUS, "us")
	m.set("checkpoint.bytes", ckBytes, "B")

	var submit time.Duration
	var overheadMS float64
	deduped, executed := 0, 0
	for _, s := range res.subs {
		submit += s.submit
		if s.deduped {
			deduped++
			continue
		}
		executed++
		overheadMS += float64(s.latency.Nanoseconds())/1e6 - refs[s.key].wallMS
	}
	m.set("server.submit_us", us(submit, len(res.subs)), "us")
	m.set("server.dedupe_frac", mean(float64(deduped), len(res.subs)), "ratio")
	m.set("server.executions_per_job", mean(float64(res.executions), res.distinct), "ratio")
	m.set("server.overhead_ms", mean(overheadMS, executed), "ms")
	m.set("runtime.gc_cpu_frac", gc, "ratio")
	m.set("bench.trace_overhead_frac", overhead, "ratio")

	printAttribution(rec)
}

// printAttribution prints how the attributed searches' wall time splits
// into the free run, setup and the per-round components, with the
// residual no component claims.
func printAttribution(rec *recorder) {
	wall := rec.regularWall.Seconds()
	if wall == 0 {
		return
	}
	fmt.Printf("search wall time %.3fs over %d searches (%d with trial retries excluded), %d rounds:\n",
		wall, rec.searches-rec.irregular, rec.irregular, rec.regularRounds)
	row := func(name string, d time.Duration) {
		fmt.Printf("  %-26s %10.3fms %6.2f%%\n", name, float64(d.Nanoseconds())/1e6, 100*d.Seconds()/wall)
	}
	row("free run", rec.regFreeRun)
	row("setup", rec.setup)
	row("rank+select (InitTime)", rec.regInit)
	row("trial build (Workload)", rec.regBuild)
	row("simulation", rec.regSim)
	row("oracle", rec.regCheck)
	row("feedback", rec.feedback)
	row("residual (env + bookkeeping)", rec.residual)
}

// replayLogdiff times logdiff.Compare of each captured trial log against
// its target's failure log, and Sanitize over the captured lines.
func replayLogdiff(ts map[string]*core.Target, logs []captured) (compareUS, sanitizeNS float64) {
	const reps = 3
	var cmp, san time.Duration
	calls, lines := 0, 0
	for i := 0; i < reps; i++ {
		for _, l := range logs {
			fl := ts[l.failure].FailureLog
			start := time.Now()
			logdiff.Compare(l.entries, fl)
			cmp += time.Since(start)
			calls++
			start = time.Now()
			for _, e := range l.entries {
				logdiff.Sanitize(e.Msg)
			}
			san += time.Since(start)
			lines += len(l.entries)
		}
	}
	return mean(float64(cmp.Nanoseconds())/1e3, calls), mean(float64(san.Nanoseconds()), lines)
}

// replayTrace decodes the jobs' trace journals and times trace.AppendEvent
// over their events.
func replayTrace(files []jobFiles) (nsPerEvent, bytesPerJob float64) {
	var events []trace.Event
	total := 0
	for _, f := range files {
		total += len(f.trace)
		evs, err := trace.ReadAll(bytes.NewReader(f.trace))
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace replay:", err)
			continue
		}
		events = append(events, evs...)
	}
	if len(events) == 0 {
		return 0, mean(float64(total), len(files))
	}
	var buf []byte
	n := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond || n < 3*len(events) {
		for i := range events {
			buf = trace.AppendEvent(buf[:0], &events[i])
		}
		n += len(events)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), mean(float64(total), len(files))
}

// replayCheckpoints writes the jobs' real search checkpoints again with
// checkpoint.Save into dir, and reports the mean save time and size.
func replayCheckpoints(files []jobFiles, dir string) (saveUS, size float64) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "search.ck.json")
	var took time.Duration
	n, bytesTotal := 0, 0
	for _, f := range files {
		if f.checkpoint == nil || n == maxCheckpointReplays {
			continue
		}
		var env checkpoint.Envelope
		if err := json.Unmarshal(f.checkpoint, &env); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint replay:", err)
			continue
		}
		start := time.Now()
		if err := checkpoint.Save(path, env.Kind, env.Version, env.Data); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint replay:", err)
			continue
		}
		took += time.Since(start)
		n++
		bytesTotal += len(f.checkpoint)
	}
	return mean(float64(took.Nanoseconds())/1e3, n), mean(float64(bytesTotal), n)
}
