package server

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, skipped, quarantined, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(quarantined) != 0 {
		t.Fatalf("fresh journal skipped %v, quarantined %v", skipped, quarantined)
	}

	spec := Spec{Failure: "f4"}.Normalize()
	job := Job{Key: spec.Key(), Spec: spec, State: StateQueued, Submissions: 1}
	if err := j.Put(job); err != nil {
		t.Fatal(err)
	}
	updated, err := j.Update(job.Key, func(jb *Job) { jb.State = StateRunning; jb.Attempts = 2 })
	if err != nil {
		t.Fatal(err)
	}
	if updated.State != StateRunning || updated.Attempts != 2 {
		t.Fatalf("Update returned %+v", updated)
	}

	// A reopened journal sees exactly the persisted state.
	j2, skipped, quarantined, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(quarantined) != 0 {
		t.Fatalf("reopen skipped %v, quarantined %v", skipped, quarantined)
	}
	got, ok := j2.Get(job.Key)
	if !ok {
		t.Fatal("job lost across reopen")
	}
	if got.State != StateRunning || got.Attempts != 2 || !reflect.DeepEqual(got.Spec, spec) {
		t.Fatalf("reopened job = %+v", got)
	}
}

// A directory without a record is the footprint of a death between
// MkdirAll and the first record write (at most a temp file the atomic
// write never renamed) — before the submission was acknowledged. Reopen
// must skip it, not fail the whole journal.
func TestJournalSkipsRecordlessDirs(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Failure: "f1"}.Normalize()
	if err := j.Put(Job{Key: spec.Key(), Spec: spec, State: StateQueued, Submissions: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn submission next to the good one.
	if err := os.MkdirAll(filepath.Join(dir, "jobs", "deadbeef"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "deadbeef", jobFile+".tmp-1"), []byte(`{"kind":"serv`), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, skipped, quarantined, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != "deadbeef" || len(quarantined) != 0 {
		t.Fatalf("skipped = %v, quarantined = %v, want [deadbeef] and none", skipped, quarantined)
	}
	if got := j2.Jobs(); len(got) != 1 || got[0].Key != spec.Key() {
		t.Fatalf("journal holds %+v, want the one good job", got)
	}
}

// An acknowledged job whose record is corrupt or names another key must
// not vanish: reopen moves its directory to quarantine/, reports it, and
// the daemon counts it in /healthz. A recordless directory beside it is
// still just skipped.
func TestJournalQuarantinesUnreadableRecords(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, f := range []string{"f1", "f2", "f3"} {
		spec := Spec{Failure: f}.Normalize()
		if err := j.Put(Job{Key: spec.Key(), Spec: spec, State: StateDone, Submissions: 1}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, spec.Key())
	}
	good, corrupt, misnamed := keys[0], keys[1], keys[2]
	if err := os.WriteFile(filepath.Join(dir, "jobs", corrupt, jobFile), []byte(`{"kind":"serv`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A well-formed record filed under the wrong directory.
	raw, err := os.ReadFile(filepath.Join(dir, "jobs", good, jobFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", misnamed, jobFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs", "deadbeef"), 0o755); err != nil {
		t.Fatal(err)
	}

	j2, skipped, quarantined, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != "deadbeef" {
		t.Fatalf("skipped = %v, want [deadbeef]", skipped)
	}
	gotQ := map[string]bool{}
	for _, q := range quarantined {
		if q.Err == nil || q.Dir != filepath.Join(dir, "quarantine", q.Key) {
			t.Fatalf("quarantine entry %+v", q)
		}
		if _, err := os.Stat(filepath.Join(q.Dir, jobFile)); err != nil {
			t.Fatalf("quarantined record missing: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "jobs", q.Key)); !os.IsNotExist(err) {
			t.Fatalf("quarantined job %s still in jobs/ (stat err %v)", q.Key, err)
		}
		gotQ[q.Key] = true
	}
	if len(quarantined) != 2 || !gotQ[corrupt] || !gotQ[misnamed] {
		t.Fatalf("quarantined = %+v, want %s and %s", quarantined, corrupt, misnamed)
	}
	if got := j2.Jobs(); len(got) != 1 || got[0].Key != good {
		t.Fatalf("journal holds %+v, want the one good job", got)
	}
	if n := j2.Quarantined(); n != 2 {
		t.Fatalf("Quarantined() = %d, want 2", n)
	}

	// A resubmission re-creates the quarantined key and is corrupted in
	// turn: the daemon opening the journal quarantines it under a suffixed
	// name, and /healthz counts all three quarantined records.
	spec := Spec{Failure: "f2"}.Normalize()
	if err := j2.Put(Job{Key: corrupt, Spec: spec, State: StateDone, Submissions: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", corrupt, jobFile), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Config{DataDir: dir, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, body := getBody(t, ts.URL+"/healthz")
	var health map[string]string
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz body %s: %v", body, err)
	}
	if health["status"] != "ok" || health["quarantined"] != "3" {
		t.Fatalf("healthz = %v, want status ok and 3 quarantined", health)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", corrupt+".1", jobFile)); err != nil {
		t.Fatalf("resubmitted job's corrupted record not quarantined: %v", err)
	}
}

func TestJournalUpdateUnknownJob(t *testing.T) {
	j, _, _, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Update("nope", func(*Job) {}); err == nil {
		t.Fatal("Update of unknown job succeeded")
	}
}
