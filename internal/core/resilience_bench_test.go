package core_test

// Whole-search benchmarks: one full reproduction per iteration. The
// recover-wrapped trial path is always on, so BenchmarkReproduce/baseline
// doubles as proof that panic isolation costs nothing measurable, and the
// checkpointed variant prices the worst-case checkpoint cadence (every
// round). Every variant is recorded in BENCH_core_hotpath.json, whose
// rows with a gate_benchtime are CI's allocation budgets.

import (
	"path/filepath"
	"testing"

	"anduril/internal/core"
)

func benchReproduce(b *testing.B, id string, optFor func(i int) core.Options) {
	b.Helper()
	tgt := target(b, id)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.Reproduce(tgt, optFor(i))
		if !rep.Reproduced {
			b.Fatalf("%s not reproduced: %+v", id, rep)
		}
	}
}

func BenchmarkReproduce(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		// No checkpoint path configured: maybeCheckpoint is a string
		// compare per round, and the recover wrappers are the only
		// resilience cost on this path.
		benchReproduce(b, "f4", func(int) core.Options {
			return core.Options{Strategy: core.FullFeedback, Seed: 1, MaxRounds: 60}
		})
	})
	b.Run("checkpoint-every-round", func(b *testing.B) {
		dir := b.TempDir()
		benchReproduce(b, "f4", func(i int) core.Options {
			return core.Options{
				Strategy: core.FullFeedback, Seed: 1, MaxRounds: 60,
				Checkpoint:      filepath.Join(dir, "bench.ck.json"),
				CheckpointEvery: 1,
			}
		})
	})
	b.Run("path-addressing", func(b *testing.B) {
		// Same search under AddrPath: prices the per-reach path
		// bookkeeping (context tracking, canonical-string assembly, the
		// per-site byPath index). The baseline variant above is the proof
		// that none of it is paid in the default mode.
		benchReproduce(b, "f4", func(int) core.Options {
			return core.Options{
				Strategy: core.FullFeedback, Seed: 1, MaxRounds: 60,
				Addressing: core.AddrPath,
			}
		})
	})
	b.Run("partial", func(b *testing.B) {
		// Same search with the partial class enabled: prices the partial
		// sweep (per-operation pseudo-site reaches, ID caching, amplitude
		// recording) on a search that still concludes in the site class.
		// The baseline variant above is the proof that none of it is paid
		// in the default mode.
		benchReproduce(b, "f4", func(int) core.Options {
			return core.Options{
				Strategy: core.FullFeedback, Seed: 1, MaxRounds: 60,
				FaultClasses: []string{core.ClassSite, core.ClassPartial},
			}
		})
	})
	b.Run("heavy-f30", func(b *testing.B) {
		// The heaviest search in the dataset: f30's 447-round pair search
		// under default options, where per-round cost (pair ranking, dyn
		// ring routing, the anti-entropy audit) dominates instead of the
		// free run and setup.
		benchReproduce(b, "f30", func(int) core.Options {
			return core.Options{Seed: 1}
		})
	})
}
