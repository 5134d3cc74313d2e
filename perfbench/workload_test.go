package main

import (
	"reflect"
	"sort"
	"testing"

	"anduril/internal/server"
)

// Each workload's inputs are a pure function of its seed: the same seed
// gives the same list, and every seed runs the same multiset of work.
func TestSearchListIsPureFunctionOfSeed(t *testing.T) {
	for name, p := range map[string][]search{"sweep": sweepPool(), "heavy": heavyPool()} {
		a, b := searchList(p, 7, 3), searchList(p, 7, 3)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two lists from seed 7 differ", name)
		}
		c := searchList(p, 8, 3)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 give the same order", name)
		}
		if !reflect.DeepEqual(multiset(a), multiset(c)) {
			t.Fatalf("%s: seeds 7 and 8 run different searches", name)
		}
		if len(a) != 3*len(p) {
			t.Fatalf("%s: %d searches for 3 passes over %d", name, len(a), len(p))
		}
	}
}

func multiset(l []search) []string {
	out := make([]string, len(l))
	for i, s := range l {
		out[i] = s.String()
	}
	sort.Strings(out)
	return out
}

func TestPoolsPartitionTheDataset(t *testing.T) {
	if n := len(sweepIDs()); n != 31 {
		t.Fatalf("sweep has %d failures, want 31", n)
	}
	if ids := heavyIDs(); !reflect.DeepEqual(ids, []string{"f25", "f29", "f30"}) {
		t.Fatalf("heavy failures %v", ids)
	}
}

func TestDaemonListIsPureFunctionOfSeed(t *testing.T) {
	a, b := daemonList(3, 4), daemonList(3, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two daemon lists from seed 3 differ")
	}
	if reflect.DeepEqual(a, daemonList(4, 4)) {
		t.Fatal("seeds 3 and 4 give the same daemon list")
	}
	p := daemonPool()
	for e, list := range a {
		seen := map[string]bool{}
		dups := 0
		for _, sp := range list {
			if seen[sp.Key()] {
				dups++
			}
			seen[sp.Key()] = true
		}
		if len(seen) != len(p) {
			t.Fatalf("epoch %d submits %d distinct specs, want %d", e, len(seen), len(p))
		}
		if share := float64(dups) / float64(len(list)); share < dupShare-0.01 || share > dupShare+0.01 {
			t.Fatalf("epoch %d: duplicate share %.3f, want about %.2f", e, share, dupShare)
		}
	}
	hasF25 := false
	for _, sp := range p {
		hasF25 = hasF25 || sp.Failure == "f25"
		if sp.Failure == "f29" || sp.Failure == "f30" {
			t.Fatalf("daemon pool holds heavy failure %s", sp.Failure)
		}
		if !reflect.DeepEqual(sp, server.Spec{Failure: sp.Failure, Seed: sp.Seed}.Normalize()) {
			t.Fatalf("daemon spec %+v is not a default spec", sp)
		}
	}
	if !hasF25 {
		t.Fatal("daemon pool lacks f25")
	}
}
