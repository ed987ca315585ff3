package service

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// admitClock is a hand-advanced clock for deterministic CoDel tests.
type admitClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *admitClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *admitClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestAdmission builds a controller on a fake clock with zero jitter:
// every Retry-After is the deterministic base estimate.
func newTestAdmission(workers, queue, campaigns int, target, interval time.Duration) (*admission, *admitClock) {
	clk := &admitClock{t: time.Unix(1_000_000, 0)}
	a := newAdmission(workers, queue, campaigns, target, interval)
	a.now = clk.now
	a.jitter = func() float64 { return 0 }
	return a, clk
}

func TestAdmissionClassBudgets(t *testing.T) {
	a, _ := newTestAdmission(2, 8, 3, 0, 0)
	want := map[admitClass]classLimits{
		classGenerate: {Concurrency: 2, Queue: 8},
		classVerify:   {Concurrency: 2, Queue: 4},
		classOptimize: {Concurrency: 1, Queue: 2},
		classSimulate: {Concurrency: 4, Queue: 0},
		classCampaign: {Concurrency: 3, Queue: 0},
	}
	for c, lim := range want {
		if got := a.classes[c].limits; got != lim {
			t.Errorf("%s limits = %+v, want %+v", c, got, lim)
		}
	}

	// The generate budget is concurrency+queue admissions; one more sheds.
	for i := 0; i < 10; i++ {
		if shed := a.admit(classGenerate); shed != nil {
			t.Fatalf("admit %d refused: %v", i, shed)
		}
	}
	shed := a.admit(classGenerate)
	if shed == nil {
		t.Fatal("11th generate admitted past the class budget")
	}
	if !strings.Contains(shed.Error(), "budget full") {
		t.Fatalf("shed reason = %v", shed)
	}
	// Retiring one unit (the canceled-while-queued path) frees a slot.
	a.finished(classGenerate, false, false)
	if shed := a.admit(classGenerate); shed != nil {
		t.Fatalf("admit after finished refused: %v", shed)
	}
}

func TestAdmissionSyncAcquireRelease(t *testing.T) {
	a, _ := newTestAdmission(1, 4, 1, 0, 0)
	// Simulate's budget is 2x workers, no queue.
	if shed := a.acquire(classSimulate); shed != nil {
		t.Fatalf("first acquire: %v", shed)
	}
	if shed := a.acquire(classSimulate); shed != nil {
		t.Fatalf("second acquire: %v", shed)
	}
	if shed := a.acquire(classSimulate); shed == nil {
		t.Fatal("third acquire exceeded the concurrency limit")
	}
	a.release(classSimulate)
	if shed := a.acquire(classSimulate); shed != nil {
		t.Fatalf("acquire after release: %v", shed)
	}
}

// driveDropping pushes the controller into CoDel dropping state: waits
// above target observed across more than one interval.
func driveDropping(a *admission, clk *admitClock, highWaits int) {
	for i := 0; i < highWaits; i++ {
		a.classes[classGenerate].queued++ // started() moves queued -> running
		a.started(classGenerate, a.target+time.Millisecond)
		a.finished(classGenerate, true, false)
		clk.advance(a.interval/2 + time.Millisecond)
	}
}

func TestCoDelDetectorTransitions(t *testing.T) {
	a, clk := newTestAdmission(2, 8, 2, 100*time.Millisecond, time.Second)

	// A single high wait only arms the detector.
	driveDropping(a, clk, 1)
	if a.dropping {
		t.Fatal("dropping after one high sample")
	}
	if level, _ := a.pressure(); level != pressureOK {
		t.Fatalf("pressure = %s, want ok", level)
	}

	// High waits persisting past a full interval flip it to dropping.
	driveDropping(a, clk, 3)
	if !a.dropping {
		t.Fatal("not dropping after sustained high waits")
	}
	level, reasons := a.pressure()
	if level != pressureDegraded {
		t.Fatalf("pressure = %s, want degraded (reasons %v)", level, reasons)
	}
	if len(reasons) == 0 || !strings.Contains(reasons[0], "codel dropping") {
		t.Fatalf("reasons = %v", reasons)
	}

	// Sustained congestion past the control-law threshold is overload.
	driveDropping(a, clk, sustainedDrops)
	if level, _ := a.pressure(); level != pressureOverloaded {
		t.Fatalf("pressure = %s, want overloaded", level)
	}

	// One wait back under target resets the whole detector.
	a.classes[classGenerate].queued++
	a.started(classGenerate, a.target-time.Millisecond)
	a.finished(classGenerate, true, false)
	if a.dropping || a.dropCount != 0 {
		t.Fatalf("detector not reset: dropping=%v n=%d", a.dropping, a.dropCount)
	}
	if level, _ := a.pressure(); level != pressureOK {
		t.Fatalf("pressure after recovery = %s, want ok", level)
	}
}

func TestAllowedWaitShrinksByControlLaw(t *testing.T) {
	a, clk := newTestAdmission(2, 8, 2, 100*time.Millisecond, time.Second)
	if got := a.allowedWaitLocked(); got != a.interval {
		t.Fatalf("healthy allowed wait = %s, want the full interval", got)
	}
	driveDropping(a, clk, 4) // dropping with n=2
	n := a.dropCount
	want := time.Duration(float64(a.interval) / math.Sqrt(float64(1+n)))
	if got := a.allowedWaitLocked(); got != want {
		t.Fatalf("allowed wait at n=%d: %s, want %s", n, got, want)
	}
	// The allowance never tightens below the target.
	driveDropping(a, clk, 200)
	if got := a.allowedWaitLocked(); got != a.target {
		t.Fatalf("allowed wait after heavy congestion = %s, want the %s target", got, a.target)
	}
}

func TestDroppingShedsOnEstimatedWait(t *testing.T) {
	a, clk := newTestAdmission(4, 16, 2, 100*time.Millisecond, time.Second)
	driveDropping(a, clk, 4)
	// generate sheds outright at degraded; verify holds until overloaded,
	// so it exercises the estimated-wait deadline instead. With no drain
	// history the estimate is pessimistic (one interval per queued job):
	// an empty queue estimates 0 and is admitted, but the single queued
	// job it leaves behind already exceeds any tightened allowance.
	if shed := a.admit(classVerify); shed != nil {
		t.Fatalf("first verify with an empty queue refused: %v", shed)
	}
	shed := a.admit(classVerify)
	if shed == nil {
		t.Fatal("verify admitted although the estimated wait exceeds the admission deadline")
	}
	if !strings.Contains(shed.reason, "estimated queue wait") {
		t.Fatalf("shed reason = %q", shed.reason)
	}
}

func TestShedOrderFollowsTheDegradeLadder(t *testing.T) {
	a, clk := newTestAdmission(2, 8, 2, 100*time.Millisecond, time.Second)
	driveDropping(a, clk, 3) // degraded, not yet overloaded

	for _, c := range []admitClass{classGenerate, classOptimize} {
		if shed := a.admit(c); shed == nil {
			t.Fatalf("%s admitted while degraded; it sheds first", c)
		}
	}
	if shed := a.acquire(classCampaign); shed == nil {
		a.release(classCampaign)
		t.Fatal("campaign admitted while degraded")
	}
	if shed := a.acquire(classSimulate); shed != nil {
		t.Fatalf("simulate refused while merely degraded: %v", shed)
	}
	a.release(classSimulate)

	driveDropping(a, clk, sustainedDrops) // now overloaded
	if shed := a.acquire(classSimulate); shed == nil {
		t.Fatal("simulate admitted under overload")
	}
}

func TestRetryAfterDrainRateAndClamps(t *testing.T) {
	a, clk := newTestAdmission(1, 2, 1, 100*time.Millisecond, time.Second)

	// No drain history: the floor clamp answers 1s.
	a.classes[classGenerate].queued = a.classes[classGenerate].limits.Queue + a.classes[classGenerate].limits.Concurrency
	shed := a.admit(classGenerate)
	if shed == nil {
		t.Fatal("full budget admitted")
	}
	if shed.retryAfter != time.Second {
		t.Fatalf("Retry-After with no history = %s, want the 1s floor", shed.retryAfter)
	}

	// One completion per second: the estimate is (queued+1)/rate, rounded
	// up to whole seconds (zero jitter in tests).
	for i := 0; i < drainRing; i++ {
		clk.advance(time.Second)
		a.finished(classGenerate, true, true)
	}
	a.classes[classGenerate].queued = 3
	a.classes[classGenerate].running = 0
	shed = a.admit(classGenerate)
	if shed == nil {
		// queued 3 of budget 3: full.
		t.Fatal("full budget admitted")
	}
	if shed.retryAfter != 4*time.Second {
		t.Fatalf("Retry-After at 1 job/s with 3 queued = %s, want 4s", shed.retryAfter)
	}

	// Jitter only ever stretches the answer, and the 60s ceiling holds.
	a.jitter = func() float64 { return 0.999 }
	shed = a.admit(classGenerate)
	if shed.retryAfter < 4*time.Second {
		t.Fatalf("jittered Retry-After = %s shrank below the base", shed.retryAfter)
	}
	a.classes[classVerify].queued = 500 // huge backlog at 1 job/s
	shed = a.admit(classGenerate)
	if shed.retryAfter != 60*time.Second {
		t.Fatalf("Retry-After for a 500-deep backlog = %s, want the 60s ceiling", shed.retryAfter)
	}
}

func TestPressureFromQueueOccupancy(t *testing.T) {
	a, _ := newTestAdmission(2, 8, 2, 0, 0)
	// Queue capacity across classes: 8 + 4 + 2 + 0 + 0 + 4 = 18
	// (generate, verify, optimize, simulate, campaign, diagnose).
	a.classes[classGenerate].queued = 8
	a.classes[classVerify].queued = 2
	a.classes[classDiagnose].queued = 3
	level, reasons := a.pressure() // 13/20 = 65%
	if level != pressureDegraded {
		t.Fatalf("pressure at 65%% occupancy = %s, want degraded (%v)", level, reasons)
	}
	a.classes[classVerify].queued = 4
	a.classes[classOptimize].queued = 2
	a.classes[classCampaign].queued = 2
	a.classes[classDiagnose].queued = 4 // 20/20
	if level, _ := a.pressure(); level != pressureOverloaded {
		t.Fatalf("pressure at full occupancy = %s, want overloaded", level)
	}
}

// TestAdmissionConcurrentInterleavings hammers every transition from many
// goroutines; under -race (scripts/race.sh covers internal/service) this
// is the controller's data-race gate. The end-state invariant: after every
// admitted unit is retired, all occupancy counters are back to zero.
func TestAdmissionConcurrentInterleavings(t *testing.T) {
	a, clk := newTestAdmission(4, 16, 2, 50*time.Millisecond, 500*time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0, 1: // async lifecycle, alternating cancel-while-queued
					if a.admit(classGenerate) != nil {
						continue
					}
					if i%8 < 4 {
						a.started(classGenerate, time.Duration(i%3)*40*time.Millisecond)
						a.finished(classGenerate, true, i%2 == 0)
					} else {
						a.finished(classGenerate, false, false)
					}
				case 2: // sync lifecycle
					if a.acquire(classSimulate) != nil {
						continue
					}
					a.release(classSimulate)
				case 3: // observers and the clock
					a.pressure()
					a.snapshot()
					if g == 0 {
						clk.advance(time.Millisecond)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, c := range admitClasses {
		cs := a.snapshot()[string(c)]
		if cs.Running != 0 || cs.Queued != 0 {
			t.Fatalf("%s occupancy leaked: %+v", c, cs)
		}
	}
}
