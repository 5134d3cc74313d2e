// Command replay executes a reproduction script produced by
// `anduril -script-out` (workflow step 4.a): it re-runs the failure's
// workload with the scripted fault(s) injected deterministically, checks
// the oracle, and prints the failure log around the injection. The replay
// runs under the seed recorded in the script unless -seed overrides it.
//
// Usage:
//
//	replay -failure f17 -script f17.json [-seed N] [-tail 15]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"anduril"
	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/inject"
	"anduril/internal/logging"
)

func main() {
	var (
		failure = flag.String("failure", "", "dataset failure the script belongs to (f1..f34 or issue id)")
		script  = flag.String("script", "", "reproduction script JSON (from anduril -script-out)")
		seed    = flag.Int64("seed", 0, "seed of the replay environment (default: the seed recorded in the script)")
		tail    = flag.Int("tail", 15, "failure-log lines to print")
	)
	flag.Parse()
	if *failure == "" || *script == "" {
		fmt.Fprintln(os.Stderr, "replay: -failure and -script required")
		flag.Usage()
		os.Exit(2)
	}

	target, err := anduril.Dataset(*failure)
	if err != nil {
		fail(err)
	}
	data, err := os.ReadFile(*script)
	if err != nil {
		fail(err)
	}
	sf, err := core.LoadScript(data)
	if err != nil {
		fail(err)
	}
	runSeed := sf.Seed
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			runSeed = *seed
		}
	})
	fmt.Printf("replaying %s (%s) under seed %d with %d scripted fault(s):\n", target.ID, target.Issue, runSeed, len(sf.Faults))
	for _, f := range sf.Faults {
		fmt.Printf("  %s\n", describe(f))
	}

	res := cluster.Execute(runSeed, sf.Plan(), false, target.Workload, target.Horizon)
	satisfied := target.Oracle.Satisfied(res)
	fmt.Printf("oracle %q satisfied: %v\n", target.Oracle.Name, satisfied)
	if len(res.Blocked) > 0 {
		fmt.Printf("stuck threads: %s\n", strings.Join(res.Blocked, ", "))
	}

	var warns []logging.Entry
	for _, e := range res.Entries {
		if e.Level >= logging.Warn {
			warns = append(warns, e)
		}
	}
	if len(warns) > *tail {
		warns = warns[len(warns)-*tail:]
	}
	fmt.Printf("\nlast %d warning/error lines of the replayed log:\n", len(warns))
	for _, e := range warns {
		fmt.Printf("  [%s] %s %s\n", e.Thread, e.Level, e.Msg)
	}

	if !satisfied {
		os.Exit(1)
	}
}

// describe renders one scripted fault the way its plan addresses it: a
// pair by its two members, a path-addressed fault by its call path.
func describe(f inject.Instance) string {
	if a, b, ok := inject.PairMembers(f); ok {
		return "fault pair: " + describe(a) + " and " + describe(b)
	}
	if f.Path != "" {
		return "at path " + f.Path
	}
	return fmt.Sprintf("%s at occurrence %d", f.Site, f.Occurrence)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "replay: %v\n", err)
	os.Exit(1)
}
