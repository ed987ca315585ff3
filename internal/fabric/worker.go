package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"marchgen/internal/buildinfo"
	"marchgen/internal/campaign"
	"marchgen/internal/store"
)

// Worker is the pull side of the fabric: it joins a coordinator, then
// loops lease → execute shards → complete until its context is canceled
// (or, with ExitOnDrain, until every campaign is committed). The zero
// value plus a Coordinator URL is a working worker.
type Worker struct {
	// Coordinator is the coordinator's base URL (e.g. "http://127.0.0.1:8080").
	Coordinator string
	// Name is an optional display label sent in the join handshake.
	Name string
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Poll is the idle re-poll interval when no lease is available
	// (default 200ms).
	Poll time.Duration
	// Version and Schema override the handshake identity; tests use them
	// to provoke skew rejection. Defaults: buildinfo.Version(),
	// campaign.SpecSchema.
	Version string
	Schema  string
	// RunShard executes one shard; nil means campaign.ExecuteShard. Tests
	// substitute slow or crashing executors.
	RunShard func(ctx context.Context, sh campaign.Shard, memo *campaign.Memo) ([]store.Record, error)
	// ExitOnDrain makes Run return nil once the coordinator reports every
	// campaign committed; without it the worker keeps polling for new
	// campaigns until its context dies.
	ExitOnDrain bool
	// Logf, when set, receives worker event logs.
	Logf func(format string, args ...any)

	id    string
	memos map[string]*campaign.Memo
	plans map[string][]campaign.Shard
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) poll() time.Duration {
	if w.Poll <= 0 {
		return 200 * time.Millisecond
	}
	return w.Poll
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) url(endpoint string) string {
	return strings.TrimSuffix(w.Coordinator, "/") + "/v1/fabric/" + endpoint
}

// transient reports whether an error is worth retrying: transport
// failures and coordinator 5xx are; protocol rejections (skew, unknown
// worker/lease, bad shard) are not.
func transient(err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Status >= 500
	}
	return true
}

// Run joins the coordinator and serves leases until ctx is canceled. A
// version-skew rejection (or any other permanent protocol rejection at
// join time) is returned as an error; transient coordinator outages are
// retried at the poll interval indefinitely — the lease TTL already
// bounds how long the fleet waits for an unreachable worker, so the
// worker itself can afford patience.
func (w *Worker) Run(ctx context.Context) error {
	if w.memos == nil {
		w.memos = make(map[string]*campaign.Memo)
		w.plans = make(map[string][]campaign.Shard)
	}
	if err := w.join(ctx); err != nil {
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var resp LeaseResponse
		err := postJSON(w.client(), w.url("lease"), LeaseRequest{Worker: w.id}, &resp)
		switch {
		case err != nil && !transient(err):
			return err
		case err != nil:
			w.logf("fabric worker %s: lease request failed (will retry): %v", w.id, err)
			if !sleepCtx(ctx, w.poll()) {
				return ctx.Err()
			}
			continue
		}
		switch {
		case resp.Lease != nil:
			if err := w.serveLease(ctx, *resp.Lease); err != nil {
				return err
			}
		case resp.Drained && w.ExitOnDrain:
			return nil
		default:
			if !sleepCtx(ctx, w.poll()) {
				return ctx.Err()
			}
		}
	}
}

func (w *Worker) join(ctx context.Context) error {
	version := w.Version
	if version == "" {
		version = buildinfo.Version()
	}
	schema := w.Schema
	if schema == "" {
		schema = campaign.SpecSchema
	}
	req := JoinRequest{Name: w.Name, Version: version, Schema: schema}
	for {
		var resp JoinResponse
		err := postJSON(w.client(), w.url("join"), req, &resp)
		if err == nil {
			w.id = resp.Worker
			w.logf("fabric worker %s: joined %s", w.id, w.Coordinator)
			return nil
		}
		if !transient(err) {
			return err
		}
		w.logf("fabric worker: join failed (will retry): %v", err)
		if !sleepCtx(ctx, w.poll()) {
			return ctx.Err()
		}
	}
}

// leaseBounds is the worker's view of its current lease range, updated
// from heartbeat and complete responses (a peer may steal the tail, so To
// can shrink mid-lease).
type leaseBounds struct {
	mu       sync.Mutex
	to       int
	canceled bool
}

func (b *leaseBounds) limit() (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.to, b.canceled
}

func (b *leaseBounds) shrink(to int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if to < b.to {
		b.to = to
	}
}

func (b *leaseBounds) cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.canceled = true
}

// serveLease executes a granted range in shard order, heartbeating in the
// background at a third of the TTL. Shard execution errors abort the
// lease (the TTL reassigns its remainder); only context cancellation is
// returned to Run.
func (w *Worker) serveLease(ctx context.Context, g LeaseGrant) error {
	plan, ok := w.plans[g.Campaign]
	if !ok {
		plan = campaign.Plan(g.Spec)
		w.plans[g.Campaign] = plan
		w.memos[g.Campaign] = campaign.NewMemo()
	}
	if g.To > len(plan) {
		w.logf("fabric worker %s: lease %s range [%d,%d) exceeds plan (%d shards); abandoning", w.id, g.Lease, g.From, g.To, len(plan))
		return nil
	}
	run := w.RunShard
	if run == nil {
		run = campaign.ExecuteShard
	}

	bounds := &leaseBounds{to: g.To}
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		interval := g.TTL() / 3
		if interval <= 0 {
			interval = time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
			}
			var resp HeartbeatResponse
			err := postJSON(w.client(), w.url("heartbeat"), HeartbeatRequest{Worker: w.id, Lease: g.Lease}, &resp)
			switch {
			case err == nil:
				bounds.shrink(resp.To)
			case !transient(err):
				// Expired and reassigned: stop executing — a peer owns
				// these shards now.
				w.logf("fabric worker %s: lease %s lost: %v", w.id, g.Lease, err)
				bounds.cancel()
				return
			}
		}
	}()
	defer func() {
		stopHB()
		hbDone.Wait()
	}()

	for i := g.From; ; i++ {
		to, canceled := bounds.limit()
		if canceled || i >= to {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		recs, err := run(ctx, plan[i], w.memos[g.Campaign])
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("fabric worker %s: shard %d failed, abandoning lease %s: %v", w.id, i, g.Lease, err)
			return nil
		}
		resp, err := w.complete(ctx, CompleteRequest{
			Worker: w.id, Lease: g.Lease, Campaign: g.Campaign, Shard: i, Records: recs,
		})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("fabric worker %s: completing shard %d failed, abandoning lease %s: %v", w.id, i, g.Lease, err)
			return nil
		}
		w.logf("fabric worker %s: shard %d of %s complete (dup=%v)", w.id, i, g.Campaign, resp.Duplicate)
		bounds.shrink(resp.To)
		if resp.Done {
			return nil
		}
	}
}

// complete posts one shard report, retrying transient failures a few
// times: the work is already done, so a moment of patience beats
// re-executing the shard elsewhere.
func (w *Worker) complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	var resp CompleteResponse
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if err := ctx.Err(); err != nil {
			return CompleteResponse{}, err
		}
		lastErr = postJSON(w.client(), w.url("complete"), req, &resp)
		if lastErr == nil {
			return resp, nil
		}
		if !transient(lastErr) {
			return CompleteResponse{}, lastErr
		}
		if !sleepCtx(ctx, time.Duration(attempt+1)*50*time.Millisecond) {
			return CompleteResponse{}, ctx.Err()
		}
	}
	return CompleteResponse{}, fmt.Errorf("fabric: complete: %w", lastErr)
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
