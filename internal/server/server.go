package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anduril/internal/checkpoint"
	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/parallel"
)

// Config tunes a Server. The zero value of every field means its
// default.
type Config struct {
	// DataDir is the daemon's state directory; the job journal lives in
	// DataDir/jobs. Required.
	DataDir string

	// Workers bounds concurrent job executions; <= 0 means one per CPU.
	Workers int

	// QueueCap bounds jobs in state queued: one more and submissions are
	// shed with an overload error (HTTP 429 + Retry-After) instead of
	// accepted. Jobs re-admitted at startup do not count against the cap
	// — an accepted job is a promise, so a restart may briefly hold more
	// queued jobs than the cap and sheds new work until it drains.
	// Default 256.
	QueueCap int

	// MaxAttempts bounds executions of a job whose attempts die of
	// transient causes (executor panic, journal I/O error) before the
	// job fails terminally. Default 3.
	MaxAttempts int

	// CheckpointEvery is the round interval between search checkpoint
	// writes. Default 5.
	CheckpointEvery int

	// Clock realizes retry backoff delays; tests substitute a virtual
	// clock. Default: the wall clock.
	Clock Clock

	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 5
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Admission errors. The HTTP layer maps them onto status codes; embedded
// users match them directly.
var (
	// ErrBadSpec wraps spec validation failures (HTTP 400).
	ErrBadSpec = errors.New("server: invalid job spec")
	// ErrDraining rejects submissions during shutdown (HTTP 503).
	ErrDraining = errors.New("server: draining, not accepting jobs")
)

// OverloadError sheds a submission because the queue is at capacity
// (HTTP 429). RetryAfter is a deterministic estimate of when capacity
// frees up, derived from queue depth — never from the wall clock.
type OverloadError struct {
	Queued     int
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: overloaded (%d jobs queued), retry after %s", e.Queued, e.RetryAfter)
}

// Server is the reproduction daemon: a durable job journal, a bounded
// worker pool executing searches with checkpoint/resume, and the
// admission, dedupe and retry machinery around them. Create one with
// Open; serve its HTTP API via Handler; stop it with Shutdown.
type Server struct {
	cfg     Config
	journal *Journal
	pool    *parallel.Pool
	ctx     context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	queued   int // jobs journaled queued, waiting for a worker
	active   int // jobs executing right now
	draining bool
	wals     map[string]*traceWAL // live trace journals by job key

	executions atomic.Int64

	targets struct {
		mu sync.Mutex
		m  map[string]*targetEntry
	}

	// searchFn runs one search attempt; the default resolves the target
	// and calls core.Resume / core.Reproduce. Tests substitute it to
	// exercise the retry and recovery paths without a real search.
	searchFn func(sp Spec, opts core.Options, ckPath string, haveCk bool) (*core.Report, error)
}

// targetEntry builds a core.Target at most once per failure id. Targets
// are read-only during Reproduce, so every concurrent job against the
// same failure shares one instance — BuildTarget (static analysis
// included) is the expensive part of a job, not the search.
type targetEntry struct {
	once sync.Once
	t    *core.Target
	err  error
}

// Open loads the journal under cfg.DataDir, re-admits every unfinished
// job, and starts the worker pool. Jobs found in state running were
// in flight when the previous daemon died; they are demoted to queued
// (durably) and resume from their last checkpoint. Queued and demoted
// jobs enter the pool in key order, so a restarted daemon's schedule is
// deterministic.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: DataDir required")
	}
	journal, skipped, quarantined, err := OpenJournal(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	for _, key := range skipped {
		cfg.Logf("server: skipping job dir %s without a record (died before first record write)", key)
	}
	for _, q := range quarantined {
		cfg.Logf("server: quarantined job %s to %s: %v", q.Key, q.Dir, q.Err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{cfg: cfg, journal: journal, ctx: ctx, cancel: cancel, wals: map[string]*traceWAL{}}
	s.targets.m = map[string]*targetEntry{}
	s.searchFn = s.runSearch
	s.pool = parallel.NewPool(cfg.Workers, func(r any) {
		cfg.Logf("server: worker panic escaped job isolation: %v", r)
	})
	for _, job := range journal.Jobs() {
		if job.Terminal() {
			continue
		}
		if job.State == StateRunning {
			if _, err := journal.Update(job.Key, func(j *Job) { j.State = StateQueued }); err != nil {
				s.pool.Shutdown()
				cancel()
				return nil, err
			}
		}
		s.enqueue(job.Key)
		cfg.Logf("server: re-admitted job %s (%s)", job.Key[:12], job.Spec.Failure)
	}
	return s, nil
}

// enqueue registers a queued job with the pool.
func (s *Server) enqueue(key string) {
	s.mu.Lock()
	s.queued++
	s.mu.Unlock()
	s.pool.Submit(func() { s.runJob(key) })
}

// Submit admits one job. Returns the job record, whether the submission
// deduplicated onto an existing job (of any state — resubmitting a
// finished spec returns its cached result), and the admission error if
// the job was rejected: ErrBadSpec, ErrDraining, or *OverloadError.
// On (job, false, nil) the job is journaled durably — it will execute
// even if the daemon is killed right after.
//
// Admission holds the server lock across the dedupe check and the
// journal write: two racing first submissions of one spec must resolve
// into one job and one deduplicated hit, never two executions.
func (s *Server) Submit(spec Spec) (Job, bool, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Job{}, false, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	key := spec.Key()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Job{}, false, ErrDraining
	}
	if existing, ok := s.journal.Get(key); ok {
		job, err := s.journal.Update(key, func(j *Job) { j.Submissions++ })
		if err != nil {
			return existing, true, err
		}
		return job, true, nil
	}
	if s.queued >= s.cfg.QueueCap {
		return Job{}, false, &OverloadError{Queued: s.queued, RetryAfter: s.retryAfterLocked()}
	}
	job := Job{Key: key, Spec: spec, State: StateQueued, Submissions: 1}
	if err := s.journal.Put(job); err != nil {
		return Job{}, false, err
	}
	s.queued++
	s.pool.Submit(func() { s.runJob(key) })
	return job, false, nil
}

// retryAfterLocked estimates (deterministically, from queue depth alone)
// how long a shed client should wait before retrying.
func (s *Server) retryAfterLocked() time.Duration {
	workers := parallel.Workers(s.cfg.Workers)
	secs := 1 + s.queued/(workers*4)
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

// Job returns a copy of a job record.
func (s *Server) Job(key string) (Job, bool) { return s.journal.Get(key) }

// ReportJSON returns a finished job's report as the exact JSON bytes
// core.Reproduce produced (the envelope payload is the raw Marshal of
// the report, so these bytes are comparable verbatim against a serial
// run's json.Marshal output).
func (s *Server) ReportJSON(key string) ([]byte, error) {
	return checkpoint.Load(filepath.Join(s.journal.Dir(key), reportFile), reportKind, reportVersion)
}

// CanonicalReportJSON returns the stored report normalized by
// core.CanonicalReport: wall-clock fields zeroed, everything
// seed-determined kept. This is the byte-comparison currency of the
// soak and crash gates — a daemon run (resumed, retried, restarted or
// not) must produce canonical bytes identical to a serial run's.
func (s *Server) CanonicalReportJSON(key string) ([]byte, error) {
	raw, err := s.ReportJSON(key)
	if err != nil {
		return nil, err
	}
	rep := &core.Report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("server: decode report %s: %w", key, err)
	}
	return core.CanonicalReport(rep)
}

// TraceJSONL returns the job's trace journal as stored on disk plus any
// buffered lines if the job is live.
func (s *Server) TraceJSONL(key string) ([]byte, error) {
	if wal, ok := s.liveWAL(key); ok {
		if snap, err := wal.Snapshot(); err == nil {
			return snap, nil
		}
		// The WAL closed between lookup and snapshot; fall through to
		// the durable file.
	}
	return os.ReadFile(filepath.Join(s.journal.Dir(key), traceFile))
}

// Jobs returns every job record, sorted by key.
func (s *Server) Jobs() []Job { return s.journal.Jobs() }

// Executions reports how many search executions the server has started —
// the dedupe tests' observable: N identical submissions move it by one.
func (s *Server) Executions() int64 { return s.executions.Load() }

// Ready reports whether the server is accepting submissions.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// WaitIdle blocks until no job is queued or executing, or ctx ends.
func (s *Server) WaitIdle(ctx context.Context) error {
	for {
		s.mu.Lock()
		idle := s.queued == 0 && s.active == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Shutdown drains the daemon: submissions are rejected, every running
// search is interrupted through context cancellation — the engine's
// last act is a forced checkpoint at the exact interrupted round — and
// Shutdown returns once in-flight jobs have persisted their state.
// Queued jobs stay journaled; the next Open re-admits them alongside
// the interrupted ones.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	s.pool.Shutdown()
}

// runJob executes one job to a terminal state, a graceful interrupt, or
// retry exhaustion. It is the only writer of the job's state while the
// job runs.
func (s *Server) runJob(key string) {
	s.mu.Lock()
	s.queued--
	s.active++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}()

	job, ok := s.journal.Get(key)
	if !ok {
		s.cfg.Logf("server: job %s vanished from journal", key)
		return
	}
	if _, err := s.journal.Update(key, func(j *Job) { j.State = StateRunning }); err != nil {
		s.cfg.Logf("server: job %s: %v", key, err)
		return
	}

	for {
		rep, execErr := s.executeOnce(key, job.Spec)
		switch {
		case execErr == nil && rep.Interrupted:
			// Graceful drain: the engine just forced a checkpoint at the
			// interrupted round. State stays running in the journal; the
			// next Open demotes it to queued and resumes.
			return

		case execErr == nil && rep.Error != "":
			// Deterministic failure: the free run itself fails, so the
			// identical re-execution would too. Fail fast with the
			// diagnosis; no retries.
			s.finish(key, func(j *Job) { j.State = StateFailed; j.Error = rep.Error })
			return

		case execErr == nil:
			s.finish(key, func(j *Job) {
				j.State = StateDone
				j.Error = ""
				j.Reproduced, j.Rounds = rep.Reproduced, rep.Rounds
			})
			return
		}

		// Transient failure: executor panic or journal I/O error.
		// Deterministic seeded backoff, then another attempt — which
		// resumes from whatever checkpoint the dead attempt left.
		var attempt int
		updated, err := s.journal.Update(key, func(j *Job) {
			j.Attempts++
			attempt = j.Attempts
			j.Error = execErr.Error()
			if attempt < s.cfg.MaxAttempts {
				d := Backoff(j.Spec.Seed, key, attempt)
				j.RetryBackoffsMS = append(j.RetryBackoffsMS, d.Milliseconds())
			}
		})
		if err != nil {
			s.cfg.Logf("server: job %s: %v", key, err)
			return
		}
		if attempt >= s.cfg.MaxAttempts {
			s.finish(key, func(j *Job) { j.State = StateFailed })
			return
		}
		s.cfg.Logf("server: job %s attempt %d failed (%v), retrying", key[:12], attempt, execErr)
		s.cfg.Clock.Sleep(s.ctx, Backoff(updated.Spec.Seed, key, attempt))
		if s.ctx.Err() != nil {
			return // draining; state stays running for re-admission
		}
	}
}

// finish journals a terminal transition.
func (s *Server) finish(key string, f func(*Job)) {
	if _, err := s.journal.Update(key, f); err != nil {
		s.cfg.Logf("server: job %s: %v", key, err)
	}
}

// executeOnce runs one search attempt inside the job's panic isolation
// boundary: recover the trace journal against the surviving checkpoint,
// resume (or start) the search, and on completion commit trace then
// report. Any panic surfaces as an error — one poisoned job cannot take
// down the daemon.
func (s *Server) executeOnce(key string, spec Spec) (rep *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("server: job panic: %v", r)
		}
	}()

	dir := s.journal.Dir(key)
	ckPath := filepath.Join(dir, ckFile)
	ckRound, haveCk := core.CheckpointRound(ckPath)
	wal, err := openWAL(filepath.Join(dir, traceFile), ckRound, haveCk)
	if err != nil {
		return nil, err
	}
	s.setWAL(key, wal)
	defer func() {
		s.setWAL(key, nil)
		wal.Close()
	}()

	s.executions.Add(1)
	opts := spec.Options()
	opts.Context = s.ctx
	opts.Checkpoint = ckPath
	opts.CheckpointEvery = s.cfg.CheckpointEvery
	opts.Trace = wal
	opts.CheckpointFlush = wal.Flush

	rep, err = s.searchFn(spec, opts, ckPath, haveCk)
	if err != nil && haveCk {
		// The checkpoint exists but Resume rejected it (version skew, a
		// changed dataset...). It cannot be resumed by anyone; start the
		// search over from nothing.
		s.cfg.Logf("server: job %s: discarding unusable checkpoint: %v", key[:12], err)
		if rmErr := os.Remove(ckPath); rmErr != nil {
			return nil, rmErr
		}
		if rsErr := wal.Reset(); rsErr != nil {
			return nil, rsErr
		}
		rep, err = s.searchFn(spec, opts, ckPath, false)
	}
	if err != nil {
		return nil, err
	}
	if rep.Interrupted || rep.Error != "" {
		return rep, nil
	}
	// Commit order matters: trace (with its outcome line) first, then the
	// report. A kill between the two re-runs nothing — the next attempt's
	// recovery trims the outcome off and the resumed search replays only
	// the final rounds after the last checkpoint.
	if err := wal.FlushAll(); err != nil {
		return nil, err
	}
	if err := checkpoint.Save(filepath.Join(dir, reportFile), reportKind, reportVersion, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// runSearch is the production searchFn: resolve the (cached) target and
// run or resume the explorer.
func (s *Server) runSearch(sp Spec, opts core.Options, ckPath string, haveCk bool) (*core.Report, error) {
	t, err := s.target(sp.Failure)
	if err != nil {
		return nil, err
	}
	if haveCk {
		return core.Resume(t, opts, ckPath)
	}
	return core.Reproduce(t, opts), nil
}

// target builds (at most once) and returns the shared read-only Target
// for a failure id.
func (s *Server) target(id string) (*core.Target, error) {
	s.targets.mu.Lock()
	e, ok := s.targets.m[id]
	if !ok {
		e = &targetEntry{}
		s.targets.m[id] = e
	}
	s.targets.mu.Unlock()
	e.once.Do(func() {
		sc, ok := failures.ByID(id)
		if !ok {
			e.err = fmt.Errorf("server: unknown failure %q", id)
			return
		}
		e.t, e.err = sc.BuildTarget()
	})
	return e.t, e.err
}

// setWAL publishes (wal != nil) or retires the live trace journal for a
// job, for the trace-streaming endpoint.
func (s *Server) setWAL(key string, wal *traceWAL) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wal == nil {
		delete(s.wals, key)
	} else {
		s.wals[key] = wal
	}
}

// liveWAL returns the job's live trace journal, if it is executing.
func (s *Server) liveWAL(key string) (*traceWAL, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wal, ok := s.wals[key]
	return wal, ok
}
