package service

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// This file is the overload-resilience layer of marchd (DESIGN.md §15):
// an admission controller that sits between the HTTP handlers and the job
// engine. Its job is to keep the service answering — cheaply for cheap
// requests, honestly for expensive ones — when offered load exceeds
// capacity, instead of letting the queue fill and every latency collapse
// together.
//
// The model:
//
//   - Work is partitioned into classes (generate, verify, optimize,
//     diagnose, simulate, campaign) with per-class concurrency +
//     queue-depth bounds, so one expensive class cannot monopolize the
//     shared worker pool's queue. The controller is the service's only
//     count of queued and running work, and its 429 the only answer to a
//     full class: the job engine bounds only how many jobs run, and the
//     campaign manager takes each running campaign's slot here.
//   - A CoDel-style detector watches the queue wait of every dequeued
//     job. Sustained waits above the target over a full interval flip
//     the controller into "dropping" state; the admission deadline then
//     tightens by the CoDel control law (interval/√n) until waits drop
//     back under the target.
//   - Pressure is graded ok → degraded → overloaded, and classes shed in
//     cost order: cold generate/optimize/diagnose/campaign first (degraded),
//     simulate/verify only under overload. Cached reads, /v1/library,
//     job polling, /healthz and /metrics are never admission-controlled:
//     the cheap path stays green throughout.
//   - A shed answers HTTP 429 with a Retry-After derived from the
//     observed drain rate (how fast jobs have actually been completing),
//     jittered upward so a thundering herd of shed clients does not
//     return in lockstep.

// admitClass partitions the workload by cost profile; the admission
// controller budgets and sheds per class.
type admitClass string

// The request classes under admission control.
const (
	classGenerate admitClass = "generate"
	classSimulate admitClass = "simulate"
	classVerify   admitClass = "verify"
	classOptimize admitClass = "optimize"
	classCampaign admitClass = "campaign"
	classDiagnose admitClass = "diagnose"
)

// admitClasses lists every class (stable order for snapshots).
var admitClasses = []admitClass{classGenerate, classSimulate, classVerify, classOptimize, classCampaign, classDiagnose}

// pressureLevel grades the service's congestion state.
type pressureLevel int

// The degrade ladder. Healthz reports these as ok | degraded | overloaded.
const (
	pressureOK pressureLevel = iota
	pressureDegraded
	pressureOverloaded
)

func (p pressureLevel) String() string {
	switch p {
	case pressureDegraded:
		return "degraded"
	case pressureOverloaded:
		return "overloaded"
	}
	return "ok"
}

// shedAt returns the pressure level at which the class is shed: the shed
// order of the degrade ladder. Cold generation and optimization burn
// seconds of simulator time per request, so they go first; simulate and
// verify are cheaper and hold on until genuine overload.
func (c admitClass) shedAt() pressureLevel {
	switch c {
	case classGenerate, classOptimize, classCampaign, classDiagnose:
		// Diagnosis sheds with the cold classes: localization simulates a
		// signature per candidate instance per observation, which is
		// generation-grade work, and a tester can always retry.
		return pressureDegraded
	}
	return pressureOverloaded
}

// classLimits bounds one class: Concurrency caps simultaneously running
// work, Queue caps work waiting behind it. Their sum is the class's
// admission budget; sync classes set Queue 0 (they never wait).
type classLimits struct {
	Concurrency int
	Queue       int
}

// classState is the live occupancy of one class.
type classState struct {
	limits  classLimits
	running int
	queued  int
	sheds   int64
}

// shedError is the typed outcome of a refused admission; the handlers
// translate it to HTTP 429 with the carried Retry-After.
type shedError struct {
	class      admitClass
	retryAfter time.Duration
	reason     string
}

func (e *shedError) Error() string {
	return fmt.Sprintf("service: %s shed under load: %s (retry after %s)", e.class, e.reason, e.retryAfter)
}

// drainRing is how many recent job completions the drain-rate estimate
// looks back over.
const drainRing = 32

// admission is the controller. All methods are safe for concurrent use.
type admission struct {
	target   time.Duration // CoDel queue-wait target
	interval time.Duration // CoDel observation window
	now      func() time.Time
	jitter   func() float64 // in [0,1); injectable for tests

	mu      sync.Mutex
	classes map[admitClass]*classState

	// CoDel detector state, fed by observeWait on every dequeue.
	aboveSince time.Time // first moment the wait went above target; zero when under
	dropping   bool
	dropCount  int // dequeues above target while dropping (the control-law n)

	// Ring of recent completion timestamps: the drain-rate estimate.
	done    [drainRing]time.Time
	doneIdx int
	doneLen int
}

// newAdmission builds a controller with per-class budgets derived from
// the service sizing: generation owns the full queue, verify and diagnose
// half, optimize half the workers and a quarter of the queue (it is the
// most expensive class), simulate gets concurrency headroom but no queue
// (it is synchronous), and campaigns get maxCampaigns running slots and no
// queue (a campaign runs on its own goroutines, not on the job engine).
func newAdmission(workers, queueDepth, maxCampaigns int, target, interval time.Duration) *admission {
	if target <= 0 {
		target = 200 * time.Millisecond
	}
	if interval <= 0 {
		interval = time.Second
	}
	half := queueDepth / 2
	if half < 1 {
		half = 1
	}
	quarter := queueDepth / 4
	if quarter < 1 {
		quarter = 1
	}
	optConc := workers / 2
	if optConc < 1 {
		optConc = 1
	}
	a := &admission{
		target:   target,
		interval: interval,
		now:      time.Now,
		jitter:   rand.Float64,
		classes: map[admitClass]*classState{
			classGenerate: {limits: classLimits{Concurrency: workers, Queue: queueDepth}},
			classVerify:   {limits: classLimits{Concurrency: workers, Queue: half}},
			classOptimize: {limits: classLimits{Concurrency: optConc, Queue: quarter}},
			classSimulate: {limits: classLimits{Concurrency: 2 * workers, Queue: 0}},
			classCampaign: {limits: classLimits{Concurrency: maxCampaigns, Queue: 0}},
			classDiagnose: {limits: classLimits{Concurrency: workers, Queue: half}},
		},
	}
	return a
}

// admit asks to enqueue one unit of class c work. nil means admitted (the
// caller must pair it with started/finished through the job hooks); a
// *shedError means refused — answer 429 and do not submit.
func (a *admission) admit(c admitClass) *shedError {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs := a.classes[c]
	level, _ := a.pressureLocked()
	if level >= c.shedAt() {
		return a.shedLocked(cs, c, fmt.Sprintf("service %s, %s sheds at %s", level, c, c.shedAt()))
	}
	if cs.queued+cs.running >= cs.limits.Concurrency+cs.limits.Queue {
		return a.shedLocked(cs, c, fmt.Sprintf("%s budget full (%d running, %d queued)", c, cs.running, cs.queued))
	}
	if a.dropping {
		// The adaptive CoDel deadline: while dropping, new work is only
		// admitted if the queue is expected to reach it within the
		// tightened allowance.
		if est := a.estimatedWaitLocked(); est > a.allowedWaitLocked() {
			return a.shedLocked(cs, c, fmt.Sprintf("estimated queue wait %s exceeds admission deadline %s", est.Round(time.Millisecond), a.allowedWaitLocked().Round(time.Millisecond)))
		}
	}
	cs.queued++
	return nil
}

// acquire admits one unit of class c work that runs at once, without
// queueing (simulate/detects, campaigns): it counts as running immediately
// and must be released with release.
func (a *admission) acquire(c admitClass) *shedError {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs := a.classes[c]
	level, _ := a.pressureLocked()
	if level >= c.shedAt() {
		return a.shedLocked(cs, c, fmt.Sprintf("service %s, %s sheds at %s", level, c, c.shedAt()))
	}
	if cs.running >= cs.limits.Concurrency {
		return a.shedLocked(cs, c, fmt.Sprintf("%s concurrency limit %d reached", c, cs.limits.Concurrency))
	}
	cs.running++
	return nil
}

// release returns a slot taken by acquire.
func (a *admission) release(c admitClass) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs := a.classes[c]
	if cs.running > 0 {
		cs.running--
	}
}

// started moves one admitted unit from queued to running and feeds its
// queue wait to the CoDel detector. Called from the job engine's onStart
// hook, i.e. at dequeue time — exactly where CoDel measures sojourn.
func (a *admission) started(c admitClass, wait time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs := a.classes[c]
	if cs.queued > 0 {
		cs.queued--
	}
	cs.running++
	a.observeWaitLocked(wait)
}

// finished retires one unit of class c work. started tells which counter
// it occupies (a job canceled while still queued never ran); ran tells
// whether a completion should feed the drain-rate estimate.
func (a *admission) finished(c admitClass, started, ran bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs := a.classes[c]
	if started {
		if cs.running > 0 {
			cs.running--
		}
	} else if cs.queued > 0 {
		// The canceled-while-queued path.
		cs.queued--
	}
	if ran {
		a.done[a.doneIdx] = a.now()
		a.doneIdx = (a.doneIdx + 1) % drainRing
		if a.doneLen < drainRing {
			a.doneLen++
		}
	}
}

// observeWaitLocked is the CoDel detector: waits under target reset it,
// waits above target for a full interval flip it into dropping, and every
// further high sample increments the control-law count that tightens the
// admission deadline.
func (a *admission) observeWaitLocked(wait time.Duration) {
	if wait < a.target {
		a.aboveSince = time.Time{}
		a.dropping = false
		a.dropCount = 0
		return
	}
	now := a.now()
	if a.aboveSince.IsZero() {
		a.aboveSince = now
		return
	}
	if now.Sub(a.aboveSince) < a.interval {
		return
	}
	if !a.dropping {
		a.dropping = true
		a.dropCount = 0
	}
	a.dropCount++
}

// allowedWaitLocked is the adaptive queue-wait deadline new work is
// admitted against: the full interval while healthy, shrinking toward the
// target by the CoDel control law (interval/√(1+n)) while congestion
// persists.
func (a *admission) allowedWaitLocked() time.Duration {
	if !a.dropping {
		return a.interval
	}
	d := time.Duration(float64(a.interval) / math.Sqrt(float64(1+a.dropCount)))
	if d < a.target {
		d = a.target
	}
	return d
}

// estimatedWaitLocked predicts how long newly queued work will wait:
// total queued work divided by the observed drain rate. With no drain
// history it falls back to assuming one interval per queued job — a
// pessimistic guess that errs toward shedding under congestion.
func (a *admission) estimatedWaitLocked() time.Duration {
	queued := a.queuedLocked()
	if queued == 0 {
		return 0
	}
	rate := a.drainRateLocked()
	if rate <= 0 {
		return time.Duration(queued) * a.interval
	}
	return time.Duration(float64(queued+1) / rate * float64(time.Second))
}

// drainRateLocked estimates completions per second over the ring of
// recent job completions; 0 means no history yet.
func (a *admission) drainRateLocked() float64 {
	if a.doneLen < 2 {
		return 0
	}
	newest := a.done[(a.doneIdx-1+drainRing)%drainRing]
	oldest := a.done[(a.doneIdx-a.doneLen+drainRing)%drainRing]
	span := newest.Sub(oldest)
	if span <= 0 {
		return 0
	}
	return float64(a.doneLen-1) / span.Seconds()
}

// shedLocked counts one shed and builds its 429 answer: Retry-After is
// the estimated time for the backlog to drain at the observed rate,
// jittered upward by up to 50% so shed clients decorrelate, clamped to
// [1s, 60s] (whole seconds: the header's granularity).
func (a *admission) shedLocked(cs *classState, c admitClass, reason string) *shedError {
	cs.sheds++
	base := 1.0
	if rate := a.drainRateLocked(); rate > 0 {
		base = float64(a.queuedLocked()+1) / rate
	}
	secs := base * (1 + 0.5*a.jitter())
	ra := time.Duration(math.Ceil(secs)) * time.Second
	if ra < time.Second {
		ra = time.Second
	}
	if ra > 60*time.Second {
		ra = 60 * time.Second
	}
	return &shedError{class: c, retryAfter: ra, reason: reason}
}

// queuedLocked counts the admitted work of every class that has not
// started: the service's one queue depth.
func (a *admission) queuedLocked() int {
	n := 0
	for _, cs := range a.classes {
		n += cs.queued
	}
	return n
}

// queued is queuedLocked for /healthz's and /metrics's job_queue_depth.
func (a *admission) queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queuedLocked()
}

// pressure returns the current degrade level and its reasons.
func (a *admission) pressure() (pressureLevel, []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pressureLocked()
}

// sustainedDrops is the control-law count past which CoDel congestion is
// treated as overload rather than mere degradation.
const sustainedDrops = 8

// pressureLocked grades congestion from the CoDel detector and queue
// occupancy: dropping means at least degraded, sustained dropping or a
// nearly full queue means overloaded.
func (a *admission) pressureLocked() (pressureLevel, []string) {
	level := pressureOK
	var reasons []string
	if a.dropping {
		level = pressureDegraded
		reasons = append(reasons, fmt.Sprintf("queue wait above %s for over %s (codel dropping, n=%d)", a.target, a.interval, a.dropCount))
		if a.dropCount >= sustainedDrops {
			level = pressureOverloaded
			reasons = append(reasons, "congestion sustained past the control-law threshold")
		}
	}
	queued, cap := a.queuedLocked(), 0
	for _, cs := range a.classes {
		cap += cs.limits.Queue
	}
	if cap > 0 {
		occ := float64(queued) / float64(cap)
		switch {
		case occ >= 0.9:
			level = pressureOverloaded
			reasons = append(reasons, fmt.Sprintf("queues %.0f%% full (%d of %d)", occ*100, queued, cap))
		case occ >= 0.6:
			if level < pressureDegraded {
				level = pressureDegraded
			}
			reasons = append(reasons, fmt.Sprintf("queues %.0f%% full (%d of %d)", occ*100, queued, cap))
		}
	}
	return level, reasons
}

// classSnapshot is the wire form of one class's admission state (healthz
// and /metrics).
type classSnapshot struct {
	Running     int   `json:"running"`
	Queued      int   `json:"queued"`
	Concurrency int   `json:"concurrency_limit"`
	QueueCap    int   `json:"queue_cap"`
	Sheds       int64 `json:"sheds_total"`
}

// snapshot copies the per-class occupancy for healthz and /metrics.
func (a *admission) snapshot() map[string]classSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]classSnapshot, len(a.classes))
	for _, c := range admitClasses {
		cs := a.classes[c]
		out[string(c)] = classSnapshot{
			Running:     cs.running,
			Queued:      cs.queued,
			Concurrency: cs.limits.Concurrency,
			QueueCap:    cs.limits.Queue,
			Sheds:       cs.sheds,
		}
	}
	return out
}
