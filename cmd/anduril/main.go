// Command anduril reproduces one of the dataset failures from the command
// line, printing per-round progress and the final deterministic
// reproduction script.
//
// Usage:
//
//	anduril -list
//	anduril -failure f17 [-strategy full-feedback] [-seed 1] [-max-rounds 500] [-window 10] [-adjust 1] [-v]
//	anduril -failure f3 -trace run.trace.jsonl     # structured JSONL trace of the search
//	anduril -failure f3 -trace - | trace -stats -  # '-' streams the trace to stdout
//	anduril -failure f3 -checkpoint ck.json        # checkpoint the search every 10 rounds
//	anduril -failure f3 -checkpoint ck.json -resume  # continue an interrupted search
//	anduril -failure f23 -fault-classes=env,site   # widen the search to environment faults
//	anduril -failure f26                           # dyn anti-entropy failure (convergence oracle)
//	anduril -failure f30                           # combined-fault failure (searched as fault pairs)
//	anduril -failure f32                           # partial-failure root cause (torn rename)
//	anduril -failure f1 -fault-classes=site,partial  # widen a site search to partial failures
//	anduril -failure f17 -addressing=path          # path-sensitive injection addressing
//
// Exit codes: 0 = reproduced (or an informational command), 1 = internal
// error, 2 = usage error, 3 = search exhausted without reproducing,
// 4 = search interrupted (continue it with -resume).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"anduril"
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

// out carries the human-readable progress output. It is stdout unless
// -trace - claims stdout for the JSONL stream, in which case the progress
// moves to stderr so `anduril -trace - | trace -` stays clean.
var out io.Writer = os.Stdout

// Exit codes. Distinct codes let scripts tell "the search ran and the
// failure did not reproduce" (a result) from "the tool itself failed"
// (a defect) from "the search was interrupted" (resumable).
const (
	exitOK            = 0
	exitInternal      = 1
	exitUsage         = 2
	exitNotReproduced = 3
	exitInterrupted   = 4
)

// fail prints an internal error and exits with exitInternal.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "anduril: "+format+"\n", args...)
	os.Exit(exitInternal)
}

// usageErr prints a usage error and exits with exitUsage.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "anduril: "+format+"\n", args...)
	os.Exit(exitUsage)
}

func main() {
	var (
		list      = flag.Bool("list", false, "list the dataset failures and exit")
		listStrat = flag.Bool("list-strategies", false, "list the exploration strategies and exit")
		failure   = flag.String("failure", "", "dataset failure to reproduce (f1..f34 or issue id)")
		strategy  = flag.String("strategy", string(anduril.FullFeedback), "exploration strategy (see -list-strategies)")
		seed      = flag.Int64("seed", 1, "master seed (round r runs with seed+r)")
		maxRounds = flag.Int("max-rounds", 500, "round cap (the paper's 24-hour analog)")
		window    = flag.Int("window", 10, "initial flexible-window size k")
		adjust    = flag.Int("adjust", 1, "observable priority adjustment s")
		verbose   = flag.Bool("v", false, "print every round")
		iterative = flag.Int("iterative", 0, "search for up to N causally-independent faults")
		scriptOut = flag.String("script-out", "", "write the reproduction script as JSON to this file")
		dotOut    = flag.String("graph-dot", "", "write the static causal graph (Graphviz) to this file")
		traceOut  = flag.String("trace", "", "write a JSONL explorer trace to this file ('-' = stdout, for piping into cmd/trace)")
		ckptPath  = flag.String("checkpoint", "", "checkpoint the search state to this file (atomic writes)")
		ckptEvery = flag.Int("checkpoint-every", 10, "checkpoint every N rounds (with -checkpoint)")
		resume    = flag.Bool("resume", false, "resume an interrupted search from -checkpoint")
		stopAfter = flag.Int("stop-after", 0, "interrupt the search after round N (exit 4; 0 = run to completion)")
		classes   = flag.String("fault-classes", "", "comma-separated fault classes to search: site, env, pair, partial (default: the failure's own classes)")
		addrMode  = flag.String("addressing", "", "injection addressing mode: occurrence (default) or path")
	)
	flag.Parse()

	if *maxRounds <= 0 {
		usageErr("-max-rounds must be a positive round cap (got %d)", *maxRounds)
	}
	if *window <= 0 {
		usageErr("-window must be a positive initial window size (got %d)", *window)
	}
	if *adjust <= 0 {
		usageErr("-adjust must be a positive priority adjustment (got %d)", *adjust)
	}
	if *ckptEvery <= 0 {
		usageErr("-checkpoint-every must be a positive round interval (got %d)", *ckptEvery)
	}
	if *stopAfter < 0 {
		usageErr("-stop-after must be a round number, or 0 to disable (got %d)", *stopAfter)
	}
	if *resume && *ckptPath == "" {
		usageErr("-resume requires -checkpoint to name the checkpoint file")
	}
	var faultClasses []string
	if *classes != "" {
		for _, c := range strings.Split(*classes, ",") {
			c = strings.TrimSpace(c)
			if !anduril.ValidFaultClass(c) {
				usageErr("-fault-classes: unknown class %q (valid: %s)", c, strings.Join(inject.ClassNames(), ", "))
			}
			faultClasses = append(faultClasses, c)
		}
	}
	if !anduril.ValidAddressing(*addrMode) {
		usageErr("-addressing: unknown mode %q (valid: %s, %s)", *addrMode, anduril.AddrOccurrence, anduril.AddrPath)
	}
	if *iterative > 1 && (*ckptPath != "" || *resume) {
		usageErr("-checkpoint/-resume are not supported with -iterative (each pass re-bakes the workload)")
	}

	if *list {
		fmt.Printf("%-5s %-10s %-11s %s\n", "id", "issue", "system", "description")
		for _, info := range anduril.DatasetCatalog() {
			fmt.Printf("%-5s %-10s %-11s %s\n", info.ID, info.Issue, info.System, info.Description)
		}
		return
	}
	if *listStrat {
		for _, s := range anduril.Strategies() {
			fmt.Println(s)
		}
		return
	}
	if *failure == "" {
		fmt.Fprintln(os.Stderr, "anduril: -failure or -list required")
		flag.Usage()
		os.Exit(2)
	}
	if !anduril.ValidStrategy(*strategy) {
		fmt.Fprintf(os.Stderr, "anduril: unknown strategy %q; valid strategies: %s\n",
			*strategy, strategyNames())
		os.Exit(2)
	}

	var sink *trace.Writer
	if *traceOut != "" {
		w := io.Writer(os.Stdout)
		if *traceOut == "-" {
			out = os.Stderr
		} else {
			f, err := os.Create(*traceOut)
			if err != nil {
				fail("%v", err)
			}
			defer f.Close()
			w = f
		}
		sink = trace.NewWriter(w)
		defer func() {
			if err := sink.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "anduril: trace: %v\n", err)
			}
		}()
	}

	target, err := anduril.Dataset(*failure)
	if err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(out, "reproducing %s (%s) on %s: %s\n", target.ID, target.Issue, target.System, target.Description)

	if *dotOut != "" {
		dot := target.Analysis.Graph.DOT(target.ID, 400)
		if err := os.WriteFile(*dotOut, []byte(dot), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(out, "causal graph written to %s (%d nodes, %d edges)\n",
			*dotOut, target.Analysis.Graph.NumNodes(), target.Analysis.Graph.NumEdges())
	}

	opts := anduril.Options{
		Strategy: anduril.Strategy(*strategy), Seed: *seed,
		MaxRounds: *maxRounds, Window: *window, Adjust: *adjust,
		Checkpoint: *ckptPath, CheckpointEvery: *ckptEvery,
		StopAfterRound: *stopAfter, FaultClasses: faultClasses,
		Addressing: anduril.Addressing(*addrMode),
	}
	if sink != nil {
		opts.Trace = sink
	}

	if *iterative > 1 {
		iter := anduril.ReproduceIterative(target, opts, *iterative)
		if !iter.Reproduced {
			fmt.Fprintf(out, "NOT reproduced after %d passes\n", len(iter.Reports))
			os.Exit(exitNotReproduced)
		}
		fmt.Fprintf(out, "REPRODUCED with %d faults: %v\n", len(iter.Scripts), iter.Scripts)
		if *scriptOut != "" {
			writeScript(*scriptOut, func() (*core.ScriptFile, error) { return core.ScriptOfIter(iter) })
		}
		return
	}

	opts.TrackRank = true
	var report *anduril.Report
	if *resume {
		report, err = anduril.Resume(target, opts, *ckptPath)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(out, "resumed search from %s\n", *ckptPath)
	} else {
		report = anduril.Reproduce(target, opts)
	}
	if report.Error != "" {
		fail("search failed: %s", report.Error)
	}
	if report.CheckpointError != "" {
		fmt.Fprintf(os.Stderr, "anduril: warning: checkpointing stopped: %s\n", report.CheckpointError)
	}

	fmt.Fprintf(out, "free run: %d log lines, %d relevant observables, %d candidate sites, %d candidate instances\n",
		report.FreeRunLogLines, report.RelevantObservables, report.CandidateSites, report.CandidateInstances)
	if *verbose {
		for _, rd := range report.RoundLog {
			injected := "no candidate occurred (window doubled)"
			if rd.Injected != nil {
				injected = fmt.Sprintf("injected %s#%d", rd.Injected.Site, rd.Injected.Occurrence)
				if rd.Injected.Path != "" {
					injected = "injected " + rd.Injected.Path
				}
			}
			fmt.Fprintf(out, "  round %3d: window=%d rank(root)=%d %s satisfied=%v\n",
				rd.N, rd.WindowSize, rd.RootRank, injected, rd.Satisfied)
		}
	}

	if report.Interrupted {
		fmt.Fprintf(out, "INTERRUPTED after %d rounds (%.2fs); continue with -resume -checkpoint %s\n",
			report.Rounds, report.Elapsed.Seconds(), *ckptPath)
		os.Exit(exitInterrupted)
	}
	if !report.Reproduced {
		fmt.Fprintf(out, "NOT reproduced after %d rounds (%.2fs)\n", report.Rounds, report.Elapsed.Seconds())
		os.Exit(exitNotReproduced)
	}
	fmt.Fprintf(out, "REPRODUCED in %d rounds (%.2fs)\n", report.Rounds, report.Elapsed.Seconds())
	fmt.Fprintln(out, anduril.Script(report))

	if anduril.Verify(target, *report.Script, report.ScriptSeed) {
		fmt.Fprintln(out, "script verified: deterministic replay satisfies the oracle")
	} else {
		fmt.Fprintln(out, "warning: script replay did not satisfy the oracle under a fresh seed")
	}
	if *scriptOut != "" {
		writeScript(*scriptOut, func() (*core.ScriptFile, error) { return core.ScriptOf(report) })
	}
}

func strategyNames() string {
	names := ""
	for i, s := range anduril.Strategies() {
		if i > 0 {
			names += ", "
		}
		names += string(s)
	}
	return names
}

func writeScript(path string, build func() (*core.ScriptFile, error)) {
	script, err := build()
	if err != nil {
		fail("%v", err)
	}
	data, err := script.Marshal()
	if err != nil {
		fail("%v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(out, "reproduction script written to %s\n", path)
}
