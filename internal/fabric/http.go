package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"marchgen/internal/campaign"
)

// Error codes carried in fabric error bodies, so clients can react to the
// condition instead of parsing prose.
const (
	CodeSkew            = "skew"
	CodeUnknownWorker   = "unknown_worker"
	CodeUnknownLease    = "unknown_lease"
	CodeUnknownCampaign = "unknown_campaign"
	CodeBadShard        = "bad_shard"
	CodeBadRequest      = "bad_request"
	CodeInternal        = "internal"
)

// MaxBodyBytes caps every fabric request and response body. cmd/marchd
// applies the same cap to every request it serves.
const MaxBodyBytes = 64 << 20

// ErrorBody is the JSON error document of every fabric endpoint.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// RemoteError is a fabric error as seen by a client: the HTTP status plus
// the decoded body.
type RemoteError struct {
	Status int
	Code   string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("fabric: coordinator rejected request (%d %s): %s", e.Status, e.Code, e.Msg)
}

// errStatus maps protocol sentinels to an HTTP status and error code.
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrSkew):
		return http.StatusConflict, CodeSkew
	case errors.Is(err, ErrUnknownWorker):
		return http.StatusGone, CodeUnknownWorker
	case errors.Is(err, ErrUnknownLease):
		return http.StatusGone, CodeUnknownLease
	case errors.Is(err, ErrUnknownCampaign):
		return http.StatusNotFound, CodeUnknownCampaign
	case errors.Is(err, ErrBadShard):
		return http.StatusBadRequest, CodeBadShard
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure","code":"internal"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

func writeErr(w http.ResponseWriter, err error) {
	status, code := errStatus(err)
	writeJSON(w, status, ErrorBody{Error: err.Error(), Code: code})
}

func decodeInto(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("fabric: bad request body: %w", err)
	}
	return nil
}

// Mux returns a handler serving the full fabric protocol under
// /v1/fabric/. cmd/marchd mounts it via internal/service; tests mount it
// directly on httptest servers.
func (c *Coordinator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fabric/join", c.HandleJoin)
	mux.HandleFunc("POST /v1/fabric/lease", c.HandleLease)
	mux.HandleFunc("POST /v1/fabric/heartbeat", c.HandleHeartbeat)
	mux.HandleFunc("POST /v1/fabric/complete", c.HandleComplete)
	mux.HandleFunc("POST /v1/fabric/campaigns", c.HandleSubmit)
	mux.HandleFunc("GET /v1/fabric/campaigns/{id}", c.HandleSession)
	mux.HandleFunc("GET /v1/fabric/status", c.HandleStatus)
	return mux
}

// HandleJoin serves POST /v1/fabric/join.
func (c *Coordinator) HandleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := decodeInto(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Code: CodeBadRequest})
		return
	}
	resp, err := c.Join(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// HandleLease serves POST /v1/fabric/lease.
func (c *Coordinator) HandleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := decodeInto(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Code: CodeBadRequest})
		return
	}
	resp, err := c.Lease(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// HandleHeartbeat serves POST /v1/fabric/heartbeat.
func (c *Coordinator) HandleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := decodeInto(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Code: CodeBadRequest})
		return
	}
	resp, err := c.Heartbeat(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// HandleComplete serves POST /v1/fabric/complete.
func (c *Coordinator) HandleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := decodeInto(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Code: CodeBadRequest})
		return
	}
	resp, err := c.Complete(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// SubmitRequest is the body of POST /v1/fabric/campaigns.
type SubmitRequest struct {
	Spec campaign.Spec `json:"spec"`
}

// HandleSubmit serves POST /v1/fabric/campaigns.
func (c *Coordinator) HandleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeInto(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Code: CodeBadRequest})
		return
	}
	status, err := c.Submit(req.Spec)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Code: CodeBadRequest})
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// HandleSession serves GET /v1/fabric/campaigns/{id}.
func (c *Coordinator) HandleSession(w http.ResponseWriter, r *http.Request) {
	status, ok := c.SessionStatusByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorBody{
			Error: fmt.Sprintf("fabric: unknown campaign %q", r.PathValue("id")), Code: CodeUnknownCampaign,
		})
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// HandleStatus serves GET /v1/fabric/status.
func (c *Coordinator) HandleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

// postJSON is the worker-side request helper: one POST, JSON in and out,
// coordinator rejections surfaced as *RemoteError.
func postJSON(client *http.Client, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("fabric: encode request: %w", err)
	}
	httpResp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, MaxBodyBytes))
	if err != nil {
		return fmt.Errorf("fabric: read response: %w", err)
	}
	if httpResp.StatusCode != http.StatusOK {
		var eb ErrorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			return &RemoteError{Status: httpResp.StatusCode, Code: eb.Code, Msg: eb.Error}
		}
		return &RemoteError{Status: httpResp.StatusCode, Code: CodeInternal, Msg: string(raw)}
	}
	if resp == nil {
		return nil
	}
	if err := json.Unmarshal(raw, resp); err != nil {
		return fmt.Errorf("fabric: decode response: %w", err)
	}
	return nil
}
