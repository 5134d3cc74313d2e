package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"anduril/internal/core"
	"anduril/internal/trace"
)

// Committed goldens the seed-1 searches are checked against, relative to
// the repository root.
const (
	trajectoryGolden = "internal/core/testdata/site_trajectories.golden"
	traceGoldenFmt   = "internal/core/testdata/%s.trace.jsonl"
)

// goldens holds the seed-1 expectations: the full round trajectory for
// the failures in the trajectory golden, and the outcome line of the
// golden trace for the rest.
type goldens struct {
	trajectory map[string]string
	outcome    map[string]trace.Event
}

func loadGoldens(root string, ids []string) (*goldens, error) {
	g := &goldens{trajectory: map[string]string{}, outcome: map[string]trace.Event{}}
	raw, err := os.ReadFile(filepath.Join(root, trajectoryGolden))
	if err != nil {
		return nil, err
	}
	var id string
	var block strings.Builder
	flush := func() {
		if id != "" {
			g.trajectory[id] = block.String()
		}
		block.Reset()
	}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "round ") {
			flush()
			id, _, _ = strings.Cut(line, " ")
		}
		block.WriteString(line)
	}
	flush()
	for _, id := range ids {
		if _, ok := g.trajectory[id]; ok {
			continue
		}
		ev, err := goldenOutcome(filepath.Join(root, fmt.Sprintf(traceGoldenFmt, id)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		g.outcome[id] = ev
	}
	return g, nil
}

func goldenOutcome(path string) (trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Event{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var last []byte
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"event":"outcome"`)) {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := sc.Err(); err != nil {
		return trace.Event{}, err
	}
	if last == nil {
		return trace.Event{}, fmt.Errorf("no outcome line in %s", path)
	}
	var ev trace.Event
	err = json.Unmarshal(last, &ev)
	return ev, err
}

// trajectory renders a report in the trajectory golden's format.
func trajectory(id string, rep *core.Report) string {
	var b strings.Builder
	script := "none"
	if rep.Script != nil {
		script = fmt.Sprintf("%s#%d", rep.Script.Site, rep.Script.Occurrence)
	}
	fmt.Fprintf(&b, "%s reproduced=%v rounds=%d script=%s\n", id, rep.Reproduced, rep.Rounds, script)
	for _, rd := range rep.RoundLog {
		inj := "none"
		if rd.Injected != nil {
			inj = fmt.Sprintf("%s#%d", rd.Injected.Site, rd.Injected.Occurrence)
		}
		fmt.Fprintf(&b, "round %d inj=%s sat=%v rank=%d missing=%d window=%d\n",
			rd.N, inj, rd.Satisfied, rd.RootRank, rd.MissingObs, rd.WindowSize)
	}
	return b.String()
}

// checkGolden compares a seed-1 search with its committed golden; other
// seeds have none.
func (g *goldens) check(s search, rep *core.Report) error {
	if s.Seed != 1 {
		return nil
	}
	if want, ok := g.trajectory[s.Failure]; ok {
		if got := trajectory(s.Failure, rep); got != want {
			return fmt.Errorf("trajectory differs from %s", trajectoryGolden)
		}
		return nil
	}
	want, ok := g.outcome[s.Failure]
	if !ok {
		return fmt.Errorf("no golden for %s", s.Failure)
	}
	got := trace.Event{Reproduced: rep.Reproduced, Rounds: rep.Rounds, ScriptSeed: rep.ScriptSeed}
	if rep.Script != nil {
		got.Site, got.Occ, got.Path = rep.Script.Site, rep.Script.Occurrence, rep.Script.Path
	}
	if got.Reproduced != want.Reproduced || got.Rounds != want.Rounds || got.Site != want.Site ||
		got.Occ != want.Occ || got.Path != want.Path || got.ScriptSeed != want.ScriptSeed {
		return fmt.Errorf("outcome %+v differs from golden trace outcome %+v", got, want)
	}
	return nil
}

// checker runs the correctness checks of every search: it reproduced,
// its script replays under core.Verify, a seed-1 search matches the
// goldens, and repeats of one (failure, seed) give byte-equal canonical
// reports. Verification and canonical encodings are memoized per
// distinct search, since the searches are deterministic.
type checker struct {
	targets map[string]*core.Target
	golden  *goldens
	canon   map[search][]byte
	errs    map[search]error
}

func newChecker(ts map[string]*core.Target, g *goldens) *checker {
	return &checker{targets: ts, golden: g, canon: map[search][]byte{}, errs: map[search]error{}}
}

// check returns nil when the search passed every check.
func (c *checker) check(s search, rep *core.Report) error {
	canon, err := core.CanonicalReport(rep)
	if err != nil {
		return err
	}
	if first, ok := c.canon[s]; ok {
		if !bytes.Equal(first, canon) {
			return fmt.Errorf("%s: canonical report differs between repeats", s)
		}
		return c.errs[s]
	}
	c.canon[s] = canon
	err = c.first(s, rep)
	c.errs[s] = err
	return err
}

func (c *checker) first(s search, rep *core.Report) error {
	if !rep.Reproduced {
		return fmt.Errorf("%s: not reproduced in %d rounds %s", s, rep.Rounds, rep.Error)
	}
	if !core.Verify(c.targets[s.Failure], *rep.Script, rep.ScriptSeed) {
		return fmt.Errorf("%s: script %s#%d does not replay under core.Verify", s, rep.Script.Site, rep.Script.Occurrence)
	}
	if err := c.golden.check(s, rep); err != nil {
		return fmt.Errorf("%s: %w", s, err)
	}
	return nil
}
