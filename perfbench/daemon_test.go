package main

import (
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"anduril/internal/server"
)

// A daemon run leaves nothing behind: every job checks out against its
// serial reference, and afterwards no data dir, listener or goroutine of
// the run survives.
func TestDaemonRunLeavesNothingBehind(t *testing.T) {
	specs := []server.Spec{
		server.Spec{Failure: "f10", Seed: 1}.Normalize(),
		server.Spec{Failure: "f19", Seed: 2}.Normalize(),
		server.Spec{Failure: "f4", Seed: 1}.Normalize(),
	}
	ids := []string{"f10", "f19", "f4"}
	ts, err := buildTargets(ids)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGoldens("..", ids)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := references(ts, newChecker(ts, g), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	epochs := [][]server.Spec{append(specs, specs[0], specs[2]), specs}

	before := runtime.NumGoroutine()
	res, err := daemon(work, epochs, 2, canonical(refs), true)
	if err != nil {
		t.Fatal(err)
	}
	if n := countFailed(res.subs, refs); n != 0 {
		t.Fatalf("%d of %d submissions failed", n, len(res.subs))
	}
	if len(res.subs) != 8 || res.distinct != 6 || res.executions != 6 {
		t.Fatalf("subs %d distinct %d executions %d, want 8 6 6", len(res.subs), res.distinct, res.executions)
	}
	if len(res.files) != 6 {
		t.Fatalf("collected %d job journals, want 6", len(res.files))
	}
	left, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("work dir keeps %v", left)
	}
	if err := daemonGone(work); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before the run, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

func TestStoppedDaemonClosesItsListener(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	d, err := startDaemon(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(d.client.base, "http://")
	if c, err := net.Dial("tcp", addr); err != nil {
		t.Fatalf("daemon not listening: %v", err)
	} else {
		c.Close()
	}
	d.stop()
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatalf("listener %s still accepts after stop", addr)
	}
}
