package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"marchgen"
	"marchgen/internal/optimize"
	"marchgen/internal/sim"
)

// encodeErrorRecorder is implemented by statusWriter: writeJSON reports
// encode failures through it so the route layer can log and count them.
type encodeErrorRecorder interface {
	recordEncodeError(error)
}

// headerWrittenChecker is implemented by statusWriter: writeJSON consults
// it so a response whose status line is already out (a client
// disconnecting mid-write can bounce an error path back into a second
// write attempt) never gets a second, superfluous status line.
type headerWrittenChecker interface {
	headerWritten() bool
}

// writeJSON marshals v as the response body with the given status. If a
// status line already went out on this response, nothing is written — a
// second WriteHeader would be a protocol violation — and the dropped
// status is recorded as an encode error instead. When the encode itself
// fails, the status line is already out and the response cannot be
// repaired, but the failure is not dropped either: it is recorded on the
// response writer, logged through the structured request log and counted
// in /metrics as response_encode_errors.
func writeJSON(w http.ResponseWriter, status int, v any) {
	if hw, ok := w.(headerWrittenChecker); ok && hw.headerWritten() {
		if rec, ok := w.(encodeErrorRecorder); ok {
			rec.recordEncodeError(fmt.Errorf("status %d dropped: response already started", status))
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		if rec, ok := w.(encodeErrorRecorder); ok {
			rec.recordEncodeError(err)
		}
	}
}

// writeRaw sends pre-marshaled JSON bytes verbatim (the cache-hit path:
// byte-identical responses).
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// errorBody is the error body with a formatted message.
func errorBody(format string, args ...any) apiError {
	return apiError{Error: fmt.Sprintf(format, args...)}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody(format, args...))
}

// writeShed answers an admission refusal: HTTP 429 with the controller's
// drain-rate-derived, jittered Retry-After (whole seconds — the header's
// granularity).
func writeShed(w http.ResponseWriter, shed *shedError) {
	w.Header().Set("Retry-After", strconv.Itoa(int(shed.retryAfter/time.Second)))
	writeError(w, http.StatusTooManyRequests, "%v", shed)
}

// requestTimeout resolves a request's effective deadline: the body's
// timeout_ms tightened by an X-Deadline header, which accepts a Go
// duration ("1.5s") or a bare integer millisecond count. 0 means the
// server's maximum applies. The deadline propagates into the job's or the
// synchronous work's context, so an abandoned client's work stops burning
// workers at its deadline.
func requestTimeout(r *http.Request, bodyMS int64) (time.Duration, error) {
	d := millis(bodyMS)
	h := r.Header.Get("X-Deadline")
	if h == "" {
		return d, nil
	}
	hd, err := time.ParseDuration(h)
	if err != nil {
		ms, merr := strconv.ParseInt(h, 10, 64)
		if merr != nil {
			return 0, fmt.Errorf("bad X-Deadline %q: want a duration like \"30s\" or integer milliseconds", h)
		}
		hd = millis(ms)
	}
	if hd <= 0 {
		return 0, fmt.Errorf("bad X-Deadline %q: must be positive", h)
	}
	if d <= 0 || hd < d {
		d = hd
	}
	return d, nil
}

// millis converts a millisecond count to a duration, clamped to what a
// Duration can hold: a count too large to represent means "as long as the
// server allows" (the job engine caps any longer timeout, the sync timeout
// bounds the sync handlers) instead of wrapping into an arbitrary, often
// sub-millisecond, deadline.
func millis(ms int64) time.Duration {
	const limit = math.MaxInt64 / int64(time.Millisecond)
	return time.Duration(min(max(ms, -limit), limit)) * time.Millisecond
}

// writeSubmitError finishes an async submit's error path: admission sheds
// answer 429 + Retry-After, a draining engine answers 503, anything else
// 500.
func writeSubmitError(w http.ResponseWriter, err error) {
	var shed *shedError
	switch {
	case errors.As(err, &shed):
		writeShed(w, shed)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// decodeBody strictly decodes the request body into v: unknown fields, at
// any depth, and a second JSON document are client errors, reported with a
// 400 by the caller. json.Decoder keeps every byte it scans until a value
// completes, so the body's leading whitespace is skipped before the decoder
// sees it: otherwise a body padded up to the server's size cap would be
// held in memory whole. The decoder reads at least 512 bytes at a time, so
// a larger buffer would only add a copy.
func decodeBody(r *http.Request, v any) error {
	br := bufio.NewReaderSize(r.Body, 512)
	for {
		c, err := br.ReadByte()
		if err != nil {
			break // the decoder meets the error on its own first read
		}
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			br.UnreadByte()
			break
		}
	}
	dec := json.NewDecoder(br)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra any
	if dec.Decode(&extra) == nil {
		return errors.New("request body holds more than one JSON document")
	}
	return nil
}

// jobFunc is the work of one asynchronous job: it computes the result
// document, puts it in the cache and returns it.
type jobFunc = func(context.Context) ([]byte, error)

// serveAsync is the shared tail of the asynchronous endpoints (generate,
// verify, optimize, diagnose), called once the request is decoded and its
// cache key computed. A cached key answers 200 with the stored bytes and
// X-Cache: hit. Otherwise the request merges onto the live job already
// computing key, or submits the work newJob builds as a new job of the
// given admission class, and answers 202 with the job's poll location and
// X-Cache: miss. newJob runs only past the cache check, so a hit allocates
// no job closure.
func (s *Server) serveAsync(w http.ResponseWriter, r *http.Request, class admitClass, key string, timeoutMS int64, newJob func() jobFunc) {
	if body, ok := s.cache.Get(key); ok {
		s.metrics.cache(cacheHit)
		w.Header().Set("X-Cache", "hit")
		writeRaw(w, http.StatusOK, body)
		return
	}
	w.Header().Set("X-Cache", "miss")

	timeout, err := requestTimeout(r, timeoutMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, created, err := s.lookupOrSubmit(class, key, timeout, newJob())
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	if created {
		s.metrics.cache(cacheMiss)
	} else {
		s.metrics.cache(cacheCoalesced)
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, struct {
		Job  Job    `json:"job"`
		Poll string `json:"poll"`
	}{j.snapshot(false), "/v1/jobs/" + j.id})
}

// handleGenerate is POST /v1/generate: resolve the fault spec, consult the
// content-addressed cache, and either answer 200 from cache or enqueue a
// generation job and answer 202 with the job's poll location.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req generateRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	faults, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad fault spec: %v", err)
		return
	}
	var opts marchgen.Options
	if req.Options != nil {
		opts = *req.Options
	}
	opts = opts.Canonical()
	if err := checkOptions(opts); err != nil {
		writeError(w, http.StatusBadRequest, "options.%v", err)
		return
	}

	key, err := generateKey(faults, opts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.serveAsync(w, r, classGenerate, key, req.TimeoutMS, func() jobFunc {
		return func(ctx context.Context) ([]byte, error) {
			start := time.Now()
			res, err := marchgen.GenerateContext(ctx, faults, opts)
			if err != nil {
				return nil, err
			}
			body, err := marshalGenerateResult(res, opts, key)
			if err != nil {
				return nil, err
			}
			s.cache.Put(key, body)
			s.metrics.observeGenerate(time.Since(start))
			return body, nil
		}
	})
}

// handleVerify is POST /v1/verify: differential cross-check of a march test
// against a fault list — the production simulator (internal/sim) versus the
// independent reference oracle (internal/oracle). The cross-check costs two
// full exhaustive simulations, so the endpoint is asynchronous like
// /v1/generate: a cache hit answers 200 with the stored document, a miss
// enqueues a job and answers 202 with the poll location. The result lists
// every divergence; an empty list means bit-for-bit agreement.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req verifyRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	test, err := req.March.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad march spec: %v", err)
		return
	}
	faults, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad fault spec: %v", err)
		return
	}
	cfg, err := req.resolveConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := verifyKey(test, faults, cfg)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.serveAsync(w, r, classVerify, key, req.TimeoutMS, func() jobFunc {
		return func(ctx context.Context) ([]byte, error) {
			diffs := marchgen.CrossCheck(test, faults, cfg)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			wordAxis, err := crossCheckWordAxis(ctx, test, cfg.Width)
			if err != nil {
				return nil, err
			}
			mportAxis, err := crossCheckMportAxis(ctx, test, cfg.Ports)
			if err != nil {
				return nil, err
			}
			body, err := marshalVerifyResult(test, len(faults), cfg, diffs, wordAxis, mportAxis, key)
			if err != nil {
				return nil, err
			}
			s.cache.Put(key, body)
			return body, nil
		}
	})
}

// handleOptimize is POST /v1/optimize: search for a shorter full-coverage
// march test starting from a seed (an explicit test or a server-generated
// one). Asynchronous like /v1/generate: a cache hit answers 200 with the
// stored document, a miss enqueues a job and answers 202 with the poll
// location. An improved winner also lands in the runtime march library
// (with provenance), where /v1/library exposes it.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req optimizeRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	faults, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad fault spec: %v", err)
		return
	}
	seedTest, opts, err := req.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad march spec: %v", err)
		return
	}
	if err := checkOptions(opts.Generator); err != nil {
		writeError(w, http.StatusBadRequest, "generator.%v", err)
		return
	}

	key, err := optimizeKey(faults, seedTest, opts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.serveAsync(w, r, classOptimize, key, req.TimeoutMS, func() jobFunc {
		return func(ctx context.Context) ([]byte, error) {
			lastEvals := 0
			opts.OnProgress = func(p marchgen.OptimizeProgress) {
				s.metrics.optimizeProgress(int64(p.Evaluations - lastEvals))
				lastEvals = p.Evaluations
			}
			res, err := marchgen.OptimizeContext(ctx, faults, opts)
			if err != nil {
				return nil, err
			}
			s.metrics.optimizeProgress(int64(res.Stats.Evaluations - lastEvals))
			s.metrics.optimizeDone(res.Stats.Improved)
			optimize.Land(res)
			body, err := marshalOptimizeResult(res, key)
			if err != nil {
				return nil, err
			}
			s.cache.Put(key, body)
			return body, nil
		}
	})
}

// handleJobGet is GET /v1/jobs/{id}: the job snapshot, with the result
// document inlined once the job is done.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot(true))
}

// handleJobResult is GET /v1/jobs/{id}/result: the raw result document of
// a done job — the exact bytes the cache serves, so polling clients and
// cache-hit clients see identical output.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	snap := j.snapshot(true)
	switch snap.Status {
	case JobDone:
		writeRaw(w, http.StatusOK, snap.Result)
	case JobFailed, JobCanceled:
		writeError(w, http.StatusGone, "job %s %s: %s", snap.ID, snap.Status, snap.Error)
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job %s is %s; poll /v1/jobs/%s", snap.ID, snap.Status, snap.ID)
	}
}

// handleJobCancel is DELETE /v1/jobs/{id}: cancel a queued or running job.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot(false))
}

// serveSync is the shared tail of the synchronous endpoints (simulate,
// detects), called once the request is decoded and validated. It runs work
// on the request goroutine under one deadline, the server's sync timeout
// tightened by X-Deadline, in a simulate-class admission slot that frees
// when the work returns. work answers with a status and a JSON body; when
// the deadline passed before it returned, the answer is 504 instead.
func (s *Server) serveSync(w http.ResponseWriter, r *http.Request, work func(context.Context) (int, any)) {
	timeout, err := requestTimeout(r, 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if timeout <= 0 || timeout > s.cfg.syncTimeout() {
		timeout = s.cfg.syncTimeout()
	}
	if shed := s.admit.acquire(classSimulate); shed != nil {
		writeShed(w, shed)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	status, body := func() (int, any) {
		defer s.admit.release(classSimulate)
		return work(ctx)
	}()
	if sim.ContextErr(ctx) != nil {
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded before simulation finished")
		return
	}
	writeJSON(w, status, body)
}

// handleSimulate is POST /v1/simulate: synchronous fault simulation of a
// march test against a fault list.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	test, err := req.March.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad march spec: %v", err)
		return
	}
	faults, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad fault spec: %v", err)
		return
	}
	cfg, err := req.resolveConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveSync(w, r, func(ctx context.Context) (int, any) {
		// Simulation errors are request-shaped: the march test or config
		// cannot express the fault list (⇕ expansion cap, memory too small).
		sched, err := sim.NewSchedule(test, cfg)
		if err != nil {
			return http.StatusUnprocessableEntity, errorBody("simulation failed: %v", err)
		}
		report, err := sched.SimulateContext(ctx, faults)
		if err != nil {
			return 0, nil // the deadline passed: serveSync answers 504
		}
		if err := report.Err(); err != nil {
			return http.StatusUnprocessableEntity, errorBody("simulation failed: %v", err)
		}
		// The axis sections are nil at width=1/ports=1, so pre-axis
		// responses keep their exact shape.
		word, err := marchgen.EvaluateWord(ctx, test, cfg.Width, false)
		var mport *marchgen.MportResult
		if err == nil {
			mport, err = marchgen.EvaluateMport(ctx, test, cfg.Ports)
		}
		if err != nil {
			return http.StatusUnprocessableEntity, errorBody("axis evaluation failed: %v", err)
		}
		return http.StatusOK, struct {
			Report  marchgen.Report       `json:"report"`
			Word    *marchgen.WordResult  `json:"word,omitempty"`
			Mport   *marchgen.MportResult `json:"mport,omitempty"`
			Summary string                `json:"summary"`
		}{report, word, mport, report.Summary()}
	})
}

// handleDetects is POST /v1/detects: does the march test detect this one
// fault in every scenario?
func (s *Server) handleDetects(w http.ResponseWriter, r *http.Request) {
	var req detectsRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	test, err := req.March.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad march spec: %v", err)
		return
	}
	if req.Fault == nil {
		writeError(w, http.StatusBadRequest, "bad fault spec: request names no fault")
		return
	}
	cfg, err := req.resolveConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveSync(w, r, func(context.Context) (int, any) {
		detected, witness, err := marchgen.DetectsWith(test, *req.Fault, cfg)
		if err != nil {
			return http.StatusUnprocessableEntity, errorBody("simulation failed: %v", err)
		}
		out := struct {
			Fault    marchgen.Fault `json:"fault"`
			Detected bool           `json:"detected"`
			Witness  string         `json:"witness,omitempty"`
		}{*req.Fault, detected, ""}
		if witness != nil {
			out.Witness = witness.String()
		}
		return http.StatusOK, out
	})
}

// handleLibrary is GET /v1/library: the shipped march tests.
func (s *Server) handleLibrary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Tests []marchgen.March `json:"tests"`
	}{marchgen.Library()})
}

// handleFaultLists is GET /v1/faultlists: the named fault lists and their
// sizes.
func (s *Server) handleFaultLists(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name  string `json:"name"`
		Count int    `json:"count"`
	}
	var lists []entry
	for _, name := range marchgen.FaultListNames() {
		faults, err := marchgen.FaultListByName(name)
		if err != nil {
			continue // unreachable: Names and ByName are the same table
		}
		lists = append(lists, entry{Name: name, Count: len(faults)})
	}
	writeJSON(w, http.StatusOK, struct {
		Lists []entry `json:"lists"`
	}{lists})
}

// handleHealthz is GET /healthz: the degrade ladder. Status is
// ok | degraded | overloaded with the controller's reasons; the answer is
// always 200 (an overloaded service is still alive — load balancers that
// want to steer away read the body, not the status code). This endpoint
// and the other cheap reads (/v1/library, /v1/faultlists, cache hits, job
// polling, /metrics) are never admission-controlled: under overload the
// cheap path stays green.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	level, reasons := s.admit.pressure()
	writeJSON(w, http.StatusOK, struct {
		Status       string                   `json:"status"`
		Reasons      []string                 `json:"reasons,omitempty"`
		Classes      map[string]classSnapshot `json:"classes"`
		QueueDepth   int                      `json:"job_queue_depth"`
		CacheEntries int                      `json:"cache_entries"`
	}{level.String(), reasons, s.admit.snapshot(), s.admit.queued(), s.cache.Len()})
}

// handleMetrics is GET /metrics: the expvar-style counter snapshot, plus
// the fabric coordinator's counters when this instance runs one.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot(s.admit.queued(), s.cache.Len())
	level, _ := s.admit.pressure()
	snap.Pressure = level.String()
	snap.Admission = s.admit.snapshot()
	snap.ShedsByClass = make(map[string]int64)
	for c, cs := range snap.Admission {
		if cs.Sheds > 0 {
			snap.ShedsByClass[c] = cs.Sheds
		}
	}
	if s.fabric != nil {
		fc := s.fabric.Counters()
		snap.Fabric = &fc
	}
	writeJSON(w, http.StatusOK, snap)
}
