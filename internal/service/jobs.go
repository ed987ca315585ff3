package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// JobStatus is the lifecycle state of an asynchronous job.
type JobStatus string

// Job lifecycle states. A job moves queued → running → one of the three
// terminal states; a queued job canceled before a worker takes it moves
// straight to canceled.
const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is an immutable snapshot of a job's state, safe to marshal and hand
// out concurrently with the job's execution.
type Job struct {
	ID       string    `json:"id"`
	Status   JobStatus `json:"status"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Result is the raw result document of a done job.
	Result json.RawMessage `json:"result,omitempty"`
}

// ErrDraining is returned once shutdown has begun.
var ErrDraining = errors.New("service: shutting down")

// job is the engine's mutable record; all fields behind mu except the
// immutable id/created/fn/ctx/cancel.
type job struct {
	id      string
	created time.Time
	class   admitClass
	fn      func(context.Context) ([]byte, error)
	ctx     context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	status   JobStatus
	started  time.Time
	finished time.Time
	err      error
	result   []byte
	done     chan struct{} // closed when the job reaches a terminal state
}

// snapshot returns the API view of the job.
func (j *job) snapshot(withResult bool) Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Job{
		ID:       j.id,
		Status:   j.status,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if withResult && j.status == JobDone {
		s.Result = json.RawMessage(j.result)
	}
	return s
}

// finalize moves the job to a terminal state exactly once.
func (j *job) finalize(status JobStatus, result []byte, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.status = status
	j.result = result
	j.err = err
	j.finished = time.Now()
	close(j.done)
}

// start moves a job a worker took from the waiting line to running.
func (j *job) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = JobRunning
	j.started = time.Now()
}

// jobEngine is the async half of the marchd service: it runs at most
// workers jobs at once and starts the others in submission order. It does
// not bound how many wait; the admission controller does, and no other
// caller submits. Generation work is submitted as closures; each job
// carries its own deadline-bearing context derived from the engine's base
// context, so individual jobs can be canceled and a shutdown can cancel
// everything still running once the drain deadline passes.
type jobEngine struct {
	workers    int
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	maxTimeout time.Duration
	retain     int

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // insertion order, for retention eviction
	waiting  []*job   // queued jobs, oldest first
	running  int      // live worker goroutines, at most workers
	draining bool

	// onStart, when set, runs when a worker takes a job, with the job
	// already marked running (admission queue-wait observation).
	onStart func(*job)
	// onTerminal, when set, runs after a job reaches a terminal state (used
	// for metrics, admission slot release and in-flight dedup bookkeeping).
	// It fires exactly once per job.
	onTerminal func(*job)
	// onPanic, when set, runs once per contained job panic (metrics).
	onPanic func()
}

// newJobEngine returns an engine that runs at most workers jobs at once.
// maxTimeout caps every job's deadline; retain bounds how many terminal
// jobs are kept for polling before the oldest are evicted.
func newJobEngine(workers int, maxTimeout time.Duration, retain int) *jobEngine {
	ctx, cancel := context.WithCancel(context.Background())
	return &jobEngine{
		workers:    workers,
		baseCtx:    ctx,
		baseCancel: cancel,
		maxTimeout: maxTimeout,
		retain:     retain,
		jobs:       make(map[string]*job),
	}
}

// worker runs j, then the head of the waiting line until none is left.
func (e *jobEngine) worker(j *job) {
	defer e.wg.Done()
	for ; j != nil; j = e.next() {
		e.runJob(j)
	}
}

// next takes the oldest waiting job, or retires the calling worker and
// returns nil when nothing waits.
func (e *jobEngine) next() *job {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.waiting) == 0 {
		e.running--
		return nil
	}
	j := e.waiting[0]
	e.waiting = e.waiting[1:]
	return j
}

func (e *jobEngine) runJob(j *job) {
	defer j.cancel() // release the deadline timer
	j.start()
	if e.onStart != nil {
		e.onStart(j)
	}

	result, err := e.safeRun(j)
	switch {
	case err == nil:
		j.finalize(JobDone, result, nil)
	case errors.Is(err, context.Canceled):
		j.finalize(JobCanceled, nil, err)
	default:
		j.finalize(JobFailed, nil, err)
	}
	if e.onTerminal != nil {
		e.onTerminal(j)
	}
}

// safeRun executes the job's closure with panic containment: a panicking
// generation must fail its own job (with the captured stack as the
// error) and leave the worker alive for the queue behind it, not take
// the whole process down.
func (e *jobEngine) safeRun(j *job) (result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			result = nil
			err = fmt.Errorf("service: job %s panicked: %v\n%s", j.id, r, debug.Stack())
			if e.onPanic != nil {
				e.onPanic()
			}
		}
	}()
	return j.fn(j.ctx)
}

// newJobID draws a random job id. Entropy exhaustion is surfaced as an
// error (mapped to HTTP 500 by the submit handler), not a panic: an id
// we cannot mint is one failed request, never a dead process.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: job id entropy: %w", err)
	}
	return "j-" + hex.EncodeToString(b[:]), nil
}

// Submit queues fn as a new job of the given admission class with the
// given deadline (capped at the engine's maximum; 0 means the maximum),
// and starts a worker for it if fewer than workers run. It never blocks,
// and refuses only once shutdown has begun (ErrDraining).
func (e *jobEngine) Submit(class admitClass, timeout time.Duration, fn func(context.Context) ([]byte, error)) (*job, error) {
	if timeout <= 0 || timeout > e.maxTimeout {
		timeout = e.maxTimeout
	}
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return nil, ErrDraining
	}
	ctx, cancel := context.WithTimeout(e.baseCtx, timeout)
	j := &job{
		id:      id,
		created: time.Now(),
		class:   class,
		fn:      fn,
		ctx:     ctx,
		cancel:  cancel,
		status:  JobQueued,
		done:    make(chan struct{}),
	}
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	e.evictLocked()
	if e.running < e.workers {
		// Under the lock, so the Add cannot race Shutdown's Wait.
		e.running++
		e.wg.Add(1)
		go e.worker(j)
	} else {
		e.waiting = append(e.waiting, j)
	}
	return j, nil
}

// evictLocked drops the oldest terminal jobs beyond the retention bound.
// Requires e.mu held.
func (e *jobEngine) evictLocked() {
	if e.retain <= 0 || len(e.jobs) <= e.retain {
		return
	}
	kept := e.order[:0]
	for _, id := range e.order {
		j := e.jobs[id]
		if len(e.jobs) > e.retain && j != nil && func() bool {
			j.mu.Lock()
			defer j.mu.Unlock()
			return j.status.Terminal()
		}() {
			delete(e.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	e.order = kept
}

// Get returns the job by id.
func (e *jobEngine) Get(id string) (*job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Cancel cancels a job: a queued job leaves the waiting line and
// terminates at once, a running one as soon as its work observes the
// canceled context. Canceling a terminal job is a no-op. The second return
// reports whether the id was known.
func (e *jobEngine) Cancel(id string) (*job, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	queued := false
	if i := slices.Index(e.waiting, j); ok && i >= 0 {
		// Taking the job off the line under the engine lock means no worker
		// can start it: this path owns its single terminal notification.
		e.waiting = append(e.waiting[:i], e.waiting[i+1:]...)
		j.finalize(JobCanceled, nil, context.Canceled)
		queued = true
	}
	e.mu.Unlock()
	if !ok {
		return nil, false
	}
	if queued && e.onTerminal != nil {
		e.onTerminal(j)
	}
	j.cancel()
	return j, true
}

// Shutdown stops accepting work and drains: queued and running jobs are
// allowed to finish until ctx expires, after which every remaining job's
// context is canceled and the workers are awaited. It returns nil when all
// jobs completed within the drain window.
func (e *jobEngine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return ErrDraining
	}
	e.draining = true
	e.mu.Unlock()
	return drain(ctx, &e.wg, e.baseCancel, "service: drain window expired; in-flight jobs canceled")
}

// drain waits for wg until ctx expires, then calls cancel and waits again.
// It returns nil when wg finished inside the window, and otherwise ctx's
// error behind the expired message.
func drain(ctx context.Context, wg *sync.WaitGroup, cancel context.CancelFunc, expired string) error {
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		cancel()
		<-finished
		return fmt.Errorf("%s: %w", expired, ctx.Err())
	}
}
