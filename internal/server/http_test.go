package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anduril/internal/core"
	"anduril/internal/trace"
)

func postSpec(t *testing.T, url string, spec Spec) (*http.Response, submitResponse) {
	t.Helper()
	raw, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, sr
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestHTTPSubmitRunReport(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := Spec{Failure: "f4", Seed: 11}
	resp, sr := postSpec(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted || sr.Deduped {
		t.Fatalf("first POST = %d (deduped=%v), want 202", resp.StatusCode, sr.Deduped)
	}
	key := sr.Job.Key
	if key != spec.Key() {
		t.Fatalf("server derived key %s, client derives %s", key, spec.Key())
	}
	resp, sr = postSpec(t, ts.URL, spec)
	if resp.StatusCode != http.StatusOK || !sr.Deduped {
		t.Fatalf("repeat POST = %d (deduped=%v), want 200 deduped", resp.StatusCode, sr.Deduped)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		code, raw := getBody(t, ts.URL+"/jobs/"+key)
		if code != http.StatusOK {
			t.Fatalf("GET job = %d: %s", code, raw)
		}
		var job Job
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatal(err)
		}
		if job.State == StateDone {
			break
		}
		if job.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("job never completed: %+v", job)
		}
		time.Sleep(2 * time.Millisecond)
	}

	wantRep, wantTrace := serialRun(t, spec)
	code, gotCanon := getBody(t, ts.URL+"/jobs/"+key+"/report?canonical=1")
	if code != http.StatusOK || !bytes.Equal(gotCanon, canonical(t, wantRep)) {
		t.Fatalf("canonical report over HTTP (%d) diverged from serial run", code)
	}
	code, gotFull := getBody(t, ts.URL+"/jobs/"+key+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET report = %d", code)
	}
	rep := &core.Report{}
	if err := json.Unmarshal(gotFull, rep); err != nil || rep.Rounds != wantRep.Rounds {
		t.Fatalf("full report failed to decode (err %v) or disagrees on rounds", err)
	}
	code, gotTrace := getBody(t, ts.URL+"/jobs/"+key+"/trace")
	if code != http.StatusOK || !bytes.Equal(gotTrace, wantTrace) {
		t.Fatalf("trace over HTTP (%d) diverged from serial run", code)
	}
	// follow on a finished job degrades to the stored bytes.
	code, gotTrace = getBody(t, ts.URL+"/jobs/"+key+"/trace?follow=1")
	if code != http.StatusOK || !bytes.Equal(gotTrace, wantTrace) {
		t.Fatalf("followed trace of finished job (%d) diverged", code)
	}

	code, raw := getBody(t, ts.URL+"/jobs")
	var jobs []Job
	if code != http.StatusOK || json.Unmarshal(raw, &jobs) != nil || len(jobs) != 1 {
		t.Fatalf("GET /jobs = %d %s", code, raw)
	}
}

// TestHTTPSubmitBodyTooLarge: a spec body over the 1 MiB bound is refused
// with 413 and admits no job.
func TestHTTPSubmitBodyTooLarge(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"failure":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB POST = %d, want 413", resp.StatusCode)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized POST admitted %d jobs", len(jobs))
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := postSpec(t, ts.URL, Spec{Failure: "f999"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown failure POST = %d, want 400", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"failure":"f4","bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field POST = %d, want 400", resp.StatusCode)
	}
	if code, _ := getBody(t, ts.URL+"/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/jobs/nope/report"); code != http.StatusNotFound {
		t.Fatalf("GET unknown report = %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", code)
	}
	s.Shutdown()
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
	if resp, _ := postSpec(t, ts.URL, Spec{Failure: "f4"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", resp.StatusCode)
	}
}

// Overload surfaces as 429 with a Retry-After the client can obey.
func TestHTTPOverloadRetryAfter(t *testing.T) {
	s := newServer(t, Config{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	s.searchFn = func(sp Spec, opts core.Options, ckPath string, haveCk bool) (*core.Report, error) {
		select {
		case <-release:
		case <-opts.Context.Done():
		}
		return &core.Report{Interrupted: true}, nil
	}
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postSpec(t, ts.URL, Spec{Failure: "f4", Seed: 1})
	deadline := time.Now().Add(30 * time.Second)
	for s.Executions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	postSpec(t, ts.URL, Spec{Failure: "f4", Seed: 2})
	resp, _ := postSpec(t, ts.URL, Spec{Failure: "f4", Seed: 3})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("Retry-After") == "0" {
		t.Fatalf("429 without usable Retry-After header (%q)", resp.Header.Get("Retry-After"))
	}
}

// A live follower streams the snapshot plus each event as the search
// emits it — no gaps, no duplicates — and the stream ends when the job
// finishes.
func TestHTTPTraceFollowStreamsLive(t *testing.T) {
	testTraceFollow(t, 0, 0)
}

// A follow stream outlives the server's ReadTimeout: it ends only when
// the job finishes, not when the request's read deadline passes.
func TestHTTPTraceFollowOutlivesReadTimeout(t *testing.T) {
	testTraceFollow(t, 100*time.Millisecond, 500*time.Millisecond)
}

// testTraceFollow follows a live job's trace on a server with the given
// ReadTimeout (0 = none), holding the job for hold after the snapshot is
// read, and checks the stream carries every event and then ends.
func testTraceFollow(t *testing.T, readTimeout, hold time.Duration) {
	s := newServer(t, Config{Workers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	ev1 := trace.Event{Type: trace.FreeRun, Target: "f4", Strategy: "full-feedback", Seed: 1}
	ev2 := trace.Event{Type: trace.RoundStart, Round: 1, Window: 10}
	ev3 := trace.Event{Type: trace.Outcome, Reproduced: true, Rounds: 1, Reason: trace.ReasonReproduced}
	s.searchFn = func(sp Spec, opts core.Options, ckPath string, haveCk bool) (*core.Report, error) {
		opts.Trace.Emit(&ev1)
		close(started)
		<-release
		opts.Trace.Emit(&ev2)
		opts.Trace.Emit(&ev3)
		return &core.Report{Target: sp.Failure, Reproduced: true, Rounds: 1}, nil
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ReadTimeout = readTimeout
	ts.Start()
	defer ts.Close()

	_, sr := postSpec(t, ts.URL, Spec{Failure: "f4"})
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started")
	}
	resp, err := http.Get(ts.URL + "/jobs/" + sr.Job.Key + "/trace?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reader := bufio.NewReader(resp.Body)
	readLine := func() string {
		type result struct {
			line string
			err  error
		}
		ch := make(chan result, 1)
		go func() {
			line, err := reader.ReadString('\n')
			ch <- result{line, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil && r.line == "" {
				return fmt.Sprintf("<err: %v>", r.err)
			}
			return r.line
		case <-time.After(30 * time.Second):
			t.Fatal("follow stream stalled")
			return ""
		}
	}
	if got, want := readLine(), string(encodeLine(ev1)); got != want {
		t.Fatalf("snapshot line = %q, want %q", got, want)
	}
	time.Sleep(hold)
	close(release)
	if got, want := readLine(), string(encodeLine(ev2)); got != want {
		t.Fatalf("live line = %q, want %q", got, want)
	}
	if got, want := readLine(), string(encodeLine(ev3)); got != want {
		t.Fatalf("outcome line = %q, want %q", got, want)
	}
	// Job finished; the WAL closes and so must the stream.
	if rest, err := io.ReadAll(reader); err != nil || len(rest) != 0 {
		t.Fatalf("stream did not end cleanly after the outcome: %q, %v", rest, err)
	}
}
