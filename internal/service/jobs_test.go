package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func waitTerminal(t *testing.T, j *job) Job {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", j.id)
	}
	return j.snapshot(true)
}

func TestJobEngineRunsSubmittedWork(t *testing.T) {
	e := newJobEngine(2, time.Minute, 16)
	defer e.Shutdown(context.Background())

	j, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) {
		return []byte(`{"ok":true}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.Status != JobDone || string(snap.Result) != `{"ok":true}` {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Started.IsZero() || snap.Finished.IsZero() {
		t.Fatalf("timestamps missing: %+v", snap)
	}
}

// TestJobEngineStartsInSubmissionOrder pins the engine's FIFO: with the
// only worker held, jobs submitted behind it start in the order they were
// submitted once it is released.
func TestJobEngineStartsInSubmissionOrder(t *testing.T) {
	e := newJobEngine(1, time.Minute, 16)
	defer e.Shutdown(context.Background())
	held, release := make(chan struct{}), make(chan struct{})
	if _, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) {
		close(held)
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-held

	const n = 8
	var (
		mu    sync.Mutex
		order []int
		jobs  []*job
	)
	for i := 0; i < n; i++ {
		j, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil, nil
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	for _, j := range jobs {
		waitTerminal(t, j)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("start order = %v, want submission order", order)
		}
	}
	if len(order) != n {
		t.Fatalf("%d of %d jobs ran", len(order), n)
	}
}

func TestJobEngineCancelQueued(t *testing.T) {
	e := newJobEngine(1, time.Minute, 16)
	release := make(chan struct{})
	j1, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	j2, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) {
		ran = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := e.Cancel(j2.id); !ok || got.snapshot(false).Status != JobCanceled {
		t.Fatalf("cancel queued: %+v, %v", got.snapshot(false), ok)
	}
	close(release)
	waitTerminal(t, j1)
	e.Shutdown(context.Background())
	if ran {
		t.Fatal("canceled queued job still ran")
	}
}

// TestJobEngineCancelRacesWorkers submits and cancels from several
// goroutines while two workers take jobs. Under any interleaving every job
// ends once, onTerminal fires once per job, onStart fires once for a job
// that started and never for one canceled off the waiting line.
func TestJobEngineCancelRacesWorkers(t *testing.T) {
	e := newJobEngine(2, time.Minute, 1024)
	var (
		mu                sync.Mutex
		starts, terminals = map[*job]int{}, map[*job]int{}
		jobs              []*job
	)
	e.onStart = func(j *job) { mu.Lock(); starts[j]++; mu.Unlock() }
	e.onTerminal = func(j *job) { mu.Lock(); terminals[j]++; mu.Unlock() }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) { return nil, ctx.Err() })
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
				if i%2 == 0 {
					e.Cancel(j.id)
				}
			}
		}()
	}
	wg.Wait()
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, j := range jobs {
		snap := j.snapshot(false)
		ran := 0
		if !snap.Started.IsZero() {
			ran = 1
		}
		if !snap.Status.Terminal() || terminals[j] != 1 || starts[j] != ran {
			t.Fatalf("job %s: status %s, onTerminal %d times, onStart %d times, started %v",
				snap.ID, snap.Status, terminals[j], starts[j], ran == 1)
		}
	}
}

func TestJobEngineCancelRunning(t *testing.T) {
	e := newJobEngine(1, time.Minute, 16)
	defer e.Shutdown(context.Background())
	started := make(chan struct{})
	j, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := e.Cancel(j.id); !ok {
		t.Fatal("cancel: unknown job")
	}
	snap := waitTerminal(t, j)
	if snap.Status != JobCanceled {
		t.Fatalf("status = %s, want canceled", snap.Status)
	}
}

func TestJobEngineDeadline(t *testing.T) {
	e := newJobEngine(1, 20*time.Millisecond, 16)
	defer e.Shutdown(context.Background())
	j, err := e.Submit(classGenerate, time.Hour /* capped to the engine max */, func(ctx context.Context) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.Status != JobFailed || !strings.Contains(snap.Error, "deadline") {
		t.Fatalf("snapshot = %+v, want failed with deadline error", snap)
	}
}

func TestJobEngineShutdownDrains(t *testing.T) {
	e := newJobEngine(2, time.Minute, 32)
	var jobs []*job
	for i := 0; i < 8; i++ {
		j, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) {
			time.Sleep(5 * time.Millisecond)
			return []byte("x"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, j := range jobs {
		if s := j.snapshot(false); s.Status != JobDone {
			t.Fatalf("job %s = %s after drain, want done", s.ID, s.Status)
		}
	}
	if _, err := e.Submit(classGenerate, 0, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown: %v, want ErrDraining", err)
	}
}

func TestJobEngineShutdownExpiryCancelsStragglers(t *testing.T) {
	e := newJobEngine(1, time.Minute, 16)
	started := make(chan struct{})
	j, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done() // only a canceled context lets this job end
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Shutdown(expired); err == nil {
		t.Fatal("shutdown reported clean drain despite straggler")
	}
	snap := waitTerminal(t, j)
	if snap.Status != JobCanceled {
		t.Fatalf("straggler status = %s, want canceled", snap.Status)
	}
}

// TestJobEnginePanicContained is the worker-survival pin: a job fn that
// panics must fail its own job with the captured stack and leave the
// worker draining the queue behind it.
func TestJobEnginePanicContained(t *testing.T) {
	e := newJobEngine(1, time.Minute, 16) // one worker: a dead worker would strand everything
	defer e.Shutdown(context.Background())
	panics := 0
	e.onPanic = func() { panics++ }

	boom, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) {
		panic("generation exploded")
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, boom)
	if snap.Status != JobFailed {
		t.Fatalf("panicking job status = %s, want failed", snap.Status)
	}
	if !strings.Contains(snap.Error, "panicked") || !strings.Contains(snap.Error, "generation exploded") ||
		!strings.Contains(snap.Error, "goroutine") {
		t.Fatalf("panicking job error lost the panic or its stack:\n%s", snap.Error)
	}

	// The same (sole) worker must still serve subsequent jobs.
	for i := 0; i < 3; i++ {
		next, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) {
			return []byte(`"alive"`), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if snap := waitTerminal(t, next); snap.Status != JobDone {
			t.Fatalf("job %d after the panic = %s, want done", i, snap.Status)
		}
	}
	if panics != 1 {
		t.Fatalf("onPanic fired %d times, want 1", panics)
	}
}

func TestJobEngineRetention(t *testing.T) {
	e := newJobEngine(1, time.Minute, 3)
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		ids = append(ids, j.id)
	}
	e.Shutdown(context.Background())
	// The oldest finished jobs are evicted once more than `retain` exist.
	if _, ok := e.Get(ids[0]); ok {
		t.Fatal("oldest job survived retention eviction")
	}
	if _, ok := e.Get(ids[len(ids)-1]); !ok {
		t.Fatal("newest job evicted")
	}
}
