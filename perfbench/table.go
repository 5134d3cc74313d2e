package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"anduril/internal/core"
	"anduril/internal/failures"
)

// Seed matrix: every failure at search seeds 1..matrixSeeds under the
// round cap the evaluation tables use.
const (
	matrixSeeds     = 8
	matrixMaxRounds = 500
)

// hotpathLedger records the allocs/op of one f4 search; the dataset table
// prints it beside the f4 row so drift between ledger and tree shows.
const hotpathLedger = "BENCH_core_hotpath.json"

// datasetTables prints the per-failure table for f1–f34 at seed 1 under
// default options (the shape of the paper's Tables 4 and 8) and the seed
// matrix. Seed-1 searches are checked against the goldens like every
// other search; the matrix is data and reports unreproduced cells as such.
func datasetTables(c config, ts map[string]*core.Target, chk *checker, out *output) error {
	all := failures.All()
	var ids []string
	for _, sc := range all {
		ids = append(ids, sc.ID)
	}
	var missing []string
	for _, id := range ids {
		if ts[id] == nil {
			missing = append(missing, id)
		}
	}
	more, err := buildTargets(missing)
	if err != nil {
		return err
	}
	for id, t := range more {
		ts[id] = t
	}
	g, err := loadGoldens(c.root, ids)
	if err != nil {
		return err
	}
	chk.golden = g

	fmt.Println()
	fmt.Println("Per-failure cost at seed 1, default options (one search each; allocs from an unwrapped run after a warm-up run):")
	fmt.Printf("%-5s %7s %10s %10s %12s %12s %10s %18s\n",
		"id", "rounds", "wall ms", "allocs", "ns/round", "free-run ms", "setup ms", "rank+select us/rd")
	for _, id := range ids {
		t := ts[id]
		s := search{Failure: id, Seed: 1}
		core.Reproduce(t, core.Options{Seed: 1}) // warm-up
		runtime.GC()
		m0 := readMem()
		start := time.Now()
		rep := core.Reproduce(t, core.Options{Seed: 1})
		wall := time.Since(start)
		allocs := readMem().mallocs - m0.mallocs

		rec := newRecorder()
		traced := runSearches(map[string]*core.Target{id: t}, []search{s}, rec)
		out.Attempted++
		if err := chk.check(s, rep); err != nil {
			out.Failed++
			fmt.Fprintln(os.Stderr, "check failed:", err)
		}
		out.Attempted++
		out.Failed += checkAll(chk, traced)

		setup := "-"
		if rec.irregular == 0 {
			setup = fmt.Sprintf("%.3f", float64(rec.setup.Nanoseconds())/1e6)
		}
		var initT time.Duration
		for _, rd := range rep.RoundLog {
			initT += rd.InitTime
		}
		rounds := max(rep.Rounds, 1)
		fmt.Printf("%-5s %7d %10.3f %10d %12.0f %12.3f %10s %18.1f\n",
			id, rep.Rounds, float64(wall.Nanoseconds())/1e6, allocs,
			float64(wall.Nanoseconds())/float64(rounds),
			float64(rep.FreeRunTime.Nanoseconds())/1e6, setup,
			float64(initT.Nanoseconds())/1e3/float64(rounds))
		if id == "f4" {
			if ledger, ok := ledgerAllocs(c.root); ok {
				fmt.Printf("      f4 in %s: %d allocs/op (this tree: %d, %+.1f%%)\n",
					hotpathLedger, ledger, allocs, 100*(float64(allocs)/float64(ledger)-1))
			}
		}
	}

	fmt.Println()
	fmt.Printf("Seed matrix: rounds at search seeds 1..%d, max %d rounds (x = not reproduced):\n", matrixSeeds, matrixMaxRounds)
	fmt.Printf("%-5s %6s %6s %6s  %s\n", "id", "min", "median", "max", "per seed")
	var unreproduced []string
	for _, id := range ids {
		var rounds []float64
		var cells []string
		for seed := int64(1); seed <= matrixSeeds; seed++ {
			rep := core.Reproduce(ts[id], core.Options{Seed: seed, MaxRounds: matrixMaxRounds})
			rounds = append(rounds, float64(rep.Rounds))
			cell := fmt.Sprint(rep.Rounds)
			if !rep.Reproduced {
				cell += "x"
				unreproduced = append(unreproduced, fmt.Sprintf("%s@%d", id, seed))
			}
			cells = append(cells, cell)
		}
		sorted := sortedCopy(rounds)
		fmt.Printf("%-5s %6.0f %6.1f %6.0f  %s\n", id, sorted[0], median(rounds), sorted[len(sorted)-1], strings.Join(cells, " "))
	}
	sort.Strings(unreproduced)
	fmt.Printf("unreproduced within %d rounds: %s\n", matrixMaxRounds, strings.Join(append([]string{fmt.Sprint(len(unreproduced))}, unreproduced...), " "))
	return nil
}

// ledgerAllocs reads the f4 allocs/op recorded in the hot-path ledger.
func ledgerAllocs(root string) (int, bool) {
	raw, err := os.ReadFile(filepath.Join(root, hotpathLedger))
	if err != nil {
		return 0, false
	}
	var ledger struct {
		Benchmarks []struct {
			Name   string `json:"name"`
			Allocs int    `json:"allocs_per_op"`
		} `json:"benchmarks"`
	}
	if json.Unmarshal(raw, &ledger) != nil {
		return 0, false
	}
	for _, b := range ledger.Benchmarks {
		if b.Name == "BenchmarkReproduce/baseline" {
			return b.Allocs, true
		}
	}
	return 0, false
}
