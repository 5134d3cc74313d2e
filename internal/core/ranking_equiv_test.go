package core_test

// Equivalence of the incremental priority index and the naive
// recompute-everything ranking: across the whole failure dataset, a
// FullFeedback search under each ranker must emit byte-identical traces
// and identical root-rank trajectories. The traces include per-round
// ranked-site snapshots and feedback deltas, so any divergence in scoring,
// ordering, or update timing shows up as a diff.

import (
	"bytes"
	"testing"

	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/trace"
)

// rankerRun reproduces one target with tracing and rank tracking under the
// chosen ranker. Window 1 maximizes the number of ranking decisions that
// reach the trace.
func rankerRun(t *testing.T, tgt *core.Target, naive bool) ([]byte, *core.Report) {
	t.Helper()
	var buf bytes.Buffer
	sink := trace.NewWriter(&buf)
	opts := core.Options{Seed: 1, MaxRounds: 60, Window: 1, TrackRank: true, Trace: sink}
	reproduce := core.Reproduce
	if naive {
		reproduce = core.ReproduceNaiveRanking
	}
	rep := reproduce(tgt, opts)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

func TestIncrementalRankingEquivalence(t *testing.T) {
	for _, sc := range failures.All() {
		sc := sc
		t.Run(sc.ID, func(t *testing.T) {
			t.Parallel()
			tgt, err := sc.BuildTarget()
			if err != nil {
				t.Fatal(err)
			}
			naiveTrace, naiveRep := rankerRun(t, tgt, true)
			indexTrace, indexRep := rankerRun(t, tgt, false)

			if !bytes.Equal(naiveTrace, indexTrace) {
				nev, _ := trace.ReadAll(bytes.NewReader(naiveTrace))
				iev, _ := trace.ReadAll(bytes.NewReader(indexTrace))
				for _, d := range trace.Diff(nev, iev, 10) {
					t.Error(d)
				}
				t.Fatalf("traces differ between naive and indexed ranking (%d vs %d events)",
					len(nev), len(iev))
			}
			if naiveRep.Reproduced != indexRep.Reproduced || naiveRep.Rounds != indexRep.Rounds {
				t.Fatalf("reports diverge: naive(reproduced=%v rounds=%d) indexed(reproduced=%v rounds=%d)",
					naiveRep.Reproduced, naiveRep.Rounds, indexRep.Reproduced, indexRep.Rounds)
			}
			if len(naiveRep.RoundLog) != len(indexRep.RoundLog) {
				t.Fatalf("round logs diverge: %d vs %d rounds", len(naiveRep.RoundLog), len(indexRep.RoundLog))
			}
			for i := range naiveRep.RoundLog {
				if naiveRep.RoundLog[i].RootRank != indexRep.RoundLog[i].RootRank {
					t.Fatalf("round %d: root rank %d (naive) vs %d (indexed)",
						i+1, naiveRep.RoundLog[i].RootRank, indexRep.RoundLog[i].RootRank)
				}
			}
		})
	}
}
