package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"anduril/internal/checkpoint"
)

// Journal file names inside <data>/jobs/<key>/.
const (
	jobFile    = "job.json"
	ckFile     = "search.ck.json"
	traceFile  = "trace.jsonl"
	reportFile = "report.json"

	jobKind    = "server-job"
	jobVersion = 1

	reportKind    = "server-report"
	reportVersion = 1
)

// Journal is the daemon's durable job table: one directory per job under
// <data>/jobs/, each holding the job record plus the search's artifacts.
// Every record write goes through an atomic checkpoint envelope and is
// fsynced (file and directories) before Put/Update return, which is what
// makes an HTTP 202 a promise: an accepted job survives kill -9 and
// power loss, and the next daemon start finds and finishes it.
//
// The in-memory map is a cache of what is on disk, never the other way
// around — mutations persist first and only then update the map, so a
// crash between the two merely re-reads the newer truth at next open.
type Journal struct {
	dir string // <data>/jobs

	mu   sync.Mutex
	jobs map[string]*Job

	quarantined int // records under <data>/quarantine at open
}

// Quarantined is an acknowledged job whose record OpenJournal could not
// read: its directory was moved out of the job table to Dir.
type Quarantined struct {
	Key string // the job directory's name
	Dir string // where the directory now lives
	Err error  // why the record could not be read
}

// OpenJournal loads (creating if necessary) the job table under dataDir.
//
// A job directory without a record is skipped and reported in skipped:
// the only way to produce one is dying between MkdirAll and the first
// record write, before the submission was ever acknowledged, so ignoring
// it loses nothing a client was promised. A directory whose record exists
// but is corrupt or names another key held an acknowledged job; it is
// moved to <dataDir>/quarantine/<key> (both parent directories fsynced)
// and reported in quarantined, never dropped silently; Quarantined counts
// it for as long as it stays there.
func OpenJournal(dataDir string) (j *Journal, skipped []string, quarantined []Quarantined, err error) {
	dir := filepath.Join(dataDir, "jobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("server: open journal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("server: open journal: %w", err)
	}
	j = &Journal{dir: dir, jobs: map[string]*Job{}}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name(), jobFile)
		if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
			skipped = append(skipped, e.Name())
			continue
		}
		job, err := readJob(path)
		if err == nil && job.Key != e.Name() {
			err = fmt.Errorf("server: %s names job %s", path, job.Key)
		}
		if err != nil {
			dst, qerr := quarantine(dataDir, e.Name())
			if qerr != nil {
				return nil, nil, nil, fmt.Errorf("server: quarantine job %s (%v): %w", e.Name(), err, qerr)
			}
			quarantined = append(quarantined, Quarantined{Key: e.Name(), Dir: dst, Err: err})
			continue
		}
		j.jobs[job.Key] = job
	}
	// Count every quarantined record, this open's and earlier ones': each
	// waits on an operator, and a restart must not hide it.
	if qs, err := os.ReadDir(filepath.Join(dataDir, "quarantine")); err == nil {
		j.quarantined = len(qs)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil, fmt.Errorf("server: open journal: %w", err)
	}
	return j, skipped, quarantined, nil
}

// Quarantined returns how many job records sat in quarantine when the
// journal was opened.
func (j *Journal) Quarantined() int { return j.quarantined }

// quarantine moves <dataDir>/jobs/<key> to <dataDir>/quarantine/<key>
// (suffixed .1, .2, ... when an earlier quarantine took the name) and
// fsyncs the directories whose entries changed, so the move survives
// power loss.
func quarantine(dataDir, key string) (string, error) {
	jobs := filepath.Join(dataDir, "jobs")
	qdir := filepath.Join(dataDir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(qdir, key)
	for n := 1; ; n++ {
		if _, err := os.Lstat(dst); errors.Is(err, fs.ErrNotExist) {
			break
		} else if err != nil {
			return "", err
		}
		dst = filepath.Join(qdir, key+"."+strconv.Itoa(n))
	}
	if err := os.Rename(filepath.Join(jobs, key), dst); err != nil {
		return "", err
	}
	for _, d := range []string{jobs, qdir, dataDir} {
		if err := checkpoint.SyncDir(d); err != nil {
			return "", err
		}
	}
	return dst, nil
}

// readJob loads one job record envelope.
func readJob(path string) (*Job, error) {
	raw, err := checkpoint.Load(path, jobKind, jobVersion)
	if err != nil {
		return nil, err
	}
	job := &Job{}
	if err := json.Unmarshal(raw, job); err != nil {
		return nil, fmt.Errorf("server: decode %s: %w", path, err)
	}
	return job, nil
}

// Dir returns the job's directory (which holds its artifacts).
func (j *Journal) Dir(key string) string { return filepath.Join(j.dir, key) }

// Get returns a copy of the job record, if present.
func (j *Journal) Get(key string) (Job, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	job, ok := j.jobs[key]
	if !ok {
		return Job{}, false
	}
	return *job, true
}

// Jobs returns copies of every record, sorted by key — the journal's
// single deterministic iteration order, used for restart re-admission
// and listings.
func (j *Journal) Jobs() []Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Job, 0, len(j.jobs))
	for _, job := range j.jobs {
		out = append(out, *job)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// Put durably creates a job record (its directory included), then
// publishes it to the in-memory table.
func (j *Journal) Put(job Job) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.persistLocked(&job)
}

// Update applies f to the job record under the journal lock, persists
// the result durably, and returns the updated copy. If persisting fails
// the in-memory record keeps its previous value.
func (j *Journal) Update(key string, f func(*Job)) (Job, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cur, ok := j.jobs[key]
	if !ok {
		return Job{}, fmt.Errorf("server: update unknown job %s", key)
	}
	next := *cur
	f(&next)
	if err := j.persistLocked(&next); err != nil {
		return Job{}, err
	}
	return next, nil
}

// persistLocked writes the record durably and installs it in the table.
// New job directories get the full treatment: MkdirAll, the atomic
// record write (which fsyncs the job directory), then an fsync of jobs/
// itself so the directory entry survives power loss too.
func (j *Journal) persistLocked(job *Job) error {
	dir := filepath.Join(j.dir, job.Key)
	_, existed := j.jobs[job.Key]
	if !existed {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("server: create job dir: %w", err)
		}
	}
	if err := checkpoint.Save(filepath.Join(dir, jobFile), jobKind, jobVersion, job); err != nil {
		return err
	}
	if !existed {
		if err := checkpoint.SyncDir(j.dir); err != nil {
			return err
		}
	}
	cp := *job
	j.jobs[job.Key] = &cp
	return nil
}
