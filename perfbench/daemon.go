package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anduril/internal/server"
)

// submission is one daemon job request as a client saw it.
type submission struct {
	spec    server.Spec
	key     string
	submit  time.Duration // POST /jobs round trip (includes the durable job.json write)
	latency time.Duration // submit to observed terminal state
	deduped bool
	err     string // non-empty when any check failed
}

// jobFiles is what one executed job left in the journal, read back
// after its epoch for the trace and checkpoint replays.
type jobFiles struct {
	trace      []byte
	checkpoint []byte // search.ck.json envelope; nil if the search never checkpointed
}

// daemonResult is a whole daemon run: every submission of every epoch.
type daemonResult struct {
	subs       []submission
	active     time.Duration   // sum of the epochs' submit-to-drain windows
	epochs     []time.Duration // each epoch's submit-to-drain window
	executions int64
	distinct   int // distinct specs over all epochs
	files      []jobFiles
}

// daemon runs an in-process anduril-server on a fresh data dir under
// work for each epoch, served on loopback, and drives it with `clients`
// closed-loop HTTP clients. refs maps job keys to the canonical report a
// serial in-process run produced; every job's report must equal it.
// With collect set, each executed job's trace and checkpoint are read
// back before the epoch's data dir is removed.
func daemon(work string, epochs [][]server.Spec, clients int, refs map[string][]byte, collect bool) (*daemonResult, error) {
	out := &daemonResult{}
	for e, list := range epochs {
		if err := epoch(filepath.Join(work, fmt.Sprintf("daemon-%d", e)), list, clients, refs, collect, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func epoch(dir string, list []server.Spec, clients int, refs map[string][]byte, collect bool, out *daemonResult) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir, clients)
	if err != nil {
		return err
	}
	defer d.stop()

	subs := make([]submission, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				subs[i] = d.client.run(list[i], refs)
			}
		}()
	}
	wg.Wait()
	active := time.Since(start)
	out.active += active
	out.epochs = append(out.epochs, active)
	out.subs = append(out.subs, subs...)
	out.executions += d.srv.Executions()

	seen := map[string]bool{}
	for _, sp := range list {
		key := sp.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out.distinct++
		if collect {
			jd := filepath.Join(dir, "jobs", key)
			f := jobFiles{}
			if f.trace, err = os.ReadFile(filepath.Join(jd, "trace.jsonl")); err != nil {
				return err
			}
			if raw, err := os.ReadFile(filepath.Join(jd, "search.ck.json")); err == nil {
				f.checkpoint = raw
			}
			out.files = append(out.files, f)
		}
	}
	return nil
}

// runningDaemon is one epoch's server, its loopback listener and the
// clients' shared connection pool.
type runningDaemon struct {
	srv    *server.Server
	http   *http.Server
	served chan struct{}
	client *client
}

func startDaemon(dir string, workers int) (*runningDaemon, error) {
	srv, err := server.Open(server.Config{DataDir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	d := &runningDaemon{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		client: &client{
			base: "http://" + ln.Addr().String(),
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}},
		},
	}
	go func() {
		defer close(d.served)
		d.http.Serve(ln)
	}()
	return d, nil
}

// stop drains the daemon, closes the listener and every connection, and
// waits for the serving goroutine to return.
func (d *runningDaemon) stop() {
	d.srv.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.http.Shutdown(ctx); err != nil {
		d.http.Close()
	}
	<-d.served
	d.client.http.CloseIdleConnections()
}

type client struct {
	base string
	http *http.Client
}

// run submits one spec, blocks until the job is terminal by following
// its live trace stream, then checks the canonical report against refs.
func (c *client) run(sp server.Spec, refs map[string][]byte) submission {
	sub := submission{spec: sp, key: sp.Key()}
	body, _ := json.Marshal(sp)
	start := time.Now()
	var resp struct {
		Job     server.Job `json:"job"`
		Deduped bool       `json:"deduped"`
	}
	status, err := c.do(http.MethodPost, "/jobs", body, &resp)
	sub.submit = time.Since(start)
	switch {
	case err != nil:
		sub.err = err.Error()
		return sub
	case status == http.StatusTooManyRequests:
		sub.err = "shed with 429"
		return sub
	case status != http.StatusAccepted && status != http.StatusOK:
		sub.err = fmt.Sprintf("submit: HTTP %d", status)
		return sub
	}
	sub.deduped = resp.Deduped
	job, err := c.wait(resp.Job)
	sub.latency = time.Since(start)
	if err != nil {
		sub.err = err.Error()
		return sub
	}
	if job.State != server.StateDone {
		sub.err = fmt.Sprintf("job ended %s: %s", job.State, job.Error)
		return sub
	}
	var canon bytes.Buffer
	if status, err := c.do(http.MethodGet, "/jobs/"+sub.key+"/report?canonical=1", nil, &canon); err != nil || status != http.StatusOK {
		sub.err = fmt.Sprintf("report: HTTP %d %v", status, err)
		return sub
	}
	if want, ok := refs[sub.key]; !ok || !bytes.Equal(canon.Bytes(), want) {
		sub.err = "canonical report differs from the serial reference"
	}
	return sub
}

// wait blocks until the job is terminal. A running job's ?follow=1
// stream closes when the job ends; a job not yet picked up by a worker
// (or just finishing) answers at once, so the loop backs off
// exponentially from 50µs between attempts.
func (c *client) wait(job server.Job) (server.Job, error) {
	backoff := 50 * time.Microsecond
	for !job.Terminal() {
		if _, err := c.do(http.MethodGet, "/jobs/"+job.Key+"/trace?follow=1", nil, io.Discard); err != nil {
			return job, err
		}
		status, err := c.do(http.MethodGet, "/jobs/"+job.Key, nil, &job)
		if err != nil {
			return job, err
		}
		if status != http.StatusOK {
			return job, fmt.Errorf("status: HTTP %d", status)
		}
		if !job.Terminal() {
			time.Sleep(backoff)
			backoff = min(2*backoff, 2*time.Millisecond)
		}
	}
	return job, nil
}

// do performs one request and decodes a 2xx JSON body into out (an
// io.Writer receives the raw body instead).
func (c *client) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	switch o := out.(type) {
	case io.Writer:
		_, err = io.Copy(o, resp.Body)
	default:
		err = json.NewDecoder(resp.Body).Decode(o)
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, err
}

// probeDaemon opens a daemon on a fresh data dir, serves it on loopback
// and stops it again — the daemon's share of set-up.
func probeDaemon(dir string, workers int) error {
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir, workers)
	if err != nil {
		return err
	}
	var health map[string]string
	status, err := d.client.do(http.MethodGet, "/healthz", nil, &health)
	d.stop()
	if err == nil && status != http.StatusOK {
		err = errors.New("healthz not ok")
	}
	return err
}
