package main

import "testing"

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// The tail is the highest ladder percentile with at least ten samples
// beyond it, or none.
func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		permille int // 0: no percentile qualifies
		value    float64
	}{
		{n: 0},
		{n: 9},
		{n: 39},               // p75 has 9 beyond
		{40, 750, 30},         // p75 has exactly 10 beyond
		{99, 750, 75},         // p90 has 9 beyond
		{100, 900, 90},        // p90 has 10 beyond
		{199, 900, 180},       // p95 has 9 beyond
		{200, 950, 190},       // p95 has 10 beyond
		{1000, 990, 990},      // p99 has 10 beyond
		{9999, 990, 9900},     // p99.9 has 9 beyond
		{10000, 999, 9990},    // p99.9 has 10 beyond
		{123456, 999, 123333}, // ceil(0.999 * 123456)
	} {
		v, p, beyond, ok := tail(ramp(tc.n))
		if ok != (tc.permille != 0) {
			t.Fatalf("n=%d: ok=%v, want %v", tc.n, ok, tc.permille != 0)
		}
		if !ok {
			continue
		}
		if p != tc.permille || v != tc.value {
			t.Errorf("n=%d: tail p%g=%g, want p%g=%g", tc.n, float64(p)/10, v, float64(tc.permille)/10, tc.value)
		}
		if beyond < tailMinBeyond || beyond != tc.n-int(v) {
			t.Errorf("n=%d: %d samples beyond the tail", tc.n, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := ramp(10)
	for permille, want := range map[int]float64{1: 1, 500: 5, 501: 6, 900: 9, 1000: 10} {
		if got := percentile(v, permille); got != want {
			t.Errorf("p%g of 1..10 = %g, want %g", float64(permille)/10, got, want)
		}
	}
}

// flat is n chunks of ten samples each, chunk i all equal to i+1.
func flat(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		for j := 0; j < 10; j++ {
			out[i] = append(out[i], float64(i+1))
		}
	}
	return out
}

// The run's tail keeps the percentile tail picks over all samples and
// takes the median over groups of chunks that each qualify on their own,
// a short remainder joining the last group.
func TestRunTailMedianOverQualifyingGroups(t *testing.T) {
	for _, tc := range []struct {
		chunks         int
		value          float64
		permille, grps int
	}{
		{chunks: 3},      // 30 samples: no percentile qualifies
		{4, 3, 750, 1},   // 40 samples: one group, p75 of 1..4
		{9, 5.5, 750, 2}, // groups 1..4 (p75 3) and 5..9 (p75 8)
		{10, 9, 900, 1},  // 100 samples: p90 qualifies, in one group
	} {
		v, p, n, groups := runTail(flat(tc.chunks))
		if n != 10*tc.chunks || groups != tc.grps || (groups > 0 && (p != tc.permille || v != tc.value)) {
			t.Errorf("%d chunks: p%g=%g over %d samples in %d groups, want p%g=%g in %d groups",
				tc.chunks, float64(p)/10, v, n, groups, float64(tc.permille)/10, tc.value, tc.grps)
		}
	}
}
