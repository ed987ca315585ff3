package service

import (
	"context"
	"net/http"

	"marchgen"
)

// handleDiagnose is POST /v1/diagnose: adaptive fault localization from
// observed syndromes (Wang et al.). The request carries the fault-model
// space and the syndromes of the march tests a tester has executed; the
// result is the candidate set of fault instances consistent with every
// observation, and — while the set is still ambiguous — the follow-up march
// that best splits it (minimizing the largest surviving ambiguity class).
// The tester runs that march, appends the new syndrome, and re-posts; the
// loop converges to a singleton or goes stable.
//
// Localization simulates a signature per candidate instance per observation
// — generation-grade work — so the endpoint is asynchronous like
// /v1/generate: a cache hit answers 200 with the stored document, a miss
// enqueues a job and answers 202 with the poll location.
func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	var req diagnoseRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	faults, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad fault spec: %v", err)
		return
	}
	obs, canon, err := req.resolveObservations()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad observations: %v", err)
		return
	}
	cfg := defaultSimConfig()
	if req.Config != nil {
		cfg = *req.Config
	}
	cfg = cfg.Canonical()
	if err := checkSize(cfg); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := diagnoseKey(faults, cfg, canon)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.serveAsync(w, r, classDiagnose, key, req.TimeoutMS, func() jobFunc {
		return func(ctx context.Context) ([]byte, error) {
			cands, err := marchgen.DiagnoseLocalize(faults, obs, cfg)
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var next *marchgen.March
			if len(cands) > 1 {
				exclude := make(map[string]bool, len(obs))
				for _, o := range obs {
					exclude[o.Test.Name] = true
				}
				t, ok, err := marchgen.DiagnoseNextTest(cands, marchgen.Library(), exclude, cfg)
				if err != nil {
					return nil, err
				}
				if ok {
					next = &t
				}
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			body, err := marshalDiagnoseResult(cands, next, len(obs), cfg, key)
			if err != nil {
				return nil, err
			}
			s.cache.Put(key, body)
			s.metrics.diagnoseDone(len(cands) == 1)
			return body, nil
		}
	})
}
