// Command marchctl is the retrying command-line client of marchd: it
// submits generation jobs, waits for and fetches their results, runs
// synchronous simulations, and drives sweep campaigns — riding out
// transient failures (503 backpressure, connection resets, gateway
// errors) with bounded exponential backoff and full jitter
// (internal/retry), honoring the server's Retry-After header.
//
// Retried submits are safe: marchd deduplicates generation jobs on their
// content-addressed cache key and campaigns on their spec hash, so a
// replayed request lands on the work already in flight.
//
// The global -timeout bounds the whole command: it is both the context
// deadline for polling loops and the retry budget of every request
// (retry.Policy.MaxElapsed), so marchctl never sleeps through a server
// Retry-After longer than its own remaining deadline.
//
// Usage:
//
//	marchctl [-addr URL] [-retries N] [-timeout D] <command> [flags]
//
//	marchctl submit -list list2 -wait
//	marchctl wait <job-id>
//	marchctl result <job-id>
//	marchctl simulate -march "March SL" -list list1
//	marchctl campaign -spec sweep.json -wait
//	marchctl campaign -cluster -spec sweep.json -wait
//
// campaign -cluster submits the spec to a coordinator-mode marchd's
// distributed fabric (POST /v1/fabric/campaigns) instead of the local
// campaign runner; with -wait it polls the fabric session until every
// shard is committed, printing the final session status (which includes
// the per-worker shard attribution).
//
// Exit codes (for scripts and CI):
//
//	0  success
//	1  the server rejected the request or the job/campaign failed
//	2  usage error (bad flags or arguments)
//	3  transport failure after exhausting retries
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"marchgen/internal/buildinfo"
)

// Exit codes of the marchctl command.
const (
	exitOK        = 0 // success
	exitRemote    = 1 // server-side rejection or failed job/campaign
	exitUsage     = 2 // flag / argument errors
	exitTransport = 3 // retries exhausted without a terminal answer
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process plumbing factored out so tests can drive
// the command end to end against an httptest server and assert on exit
// codes and output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:8080", "marchd base URL")
		retries = fs.Int("retries", 4, "attempts per request before giving up")
		timeout = fs.Duration("timeout", 5*time.Minute, "overall deadline for the whole command")
		poll    = fs.Duration("poll", 200*time.Millisecond, "status poll interval for -wait")
		version = fs.Bool("version", false, "print version and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: marchctl [flags] <submit|wait|result|simulate|diagnose|campaign> [command flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		buildinfo.Fprint(stdout, "marchctl")
		return exitOK
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return exitUsage
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := newClient(*addr, *retries, *poll, *timeout)

	switch rest[0] {
	case "submit":
		return cmdSubmit(ctx, c, rest[1:], stdout, stderr)
	case "wait":
		return cmdWait(ctx, c, rest[1:], stdout, stderr)
	case "result":
		return cmdResult(ctx, c, rest[1:], stdout, stderr)
	case "simulate":
		return cmdSimulate(ctx, c, rest[1:], stdout, stderr)
	case "diagnose":
		return cmdDiagnose(ctx, c, rest[1:], stdout, stderr)
	case "campaign":
		return cmdCampaign(ctx, c, rest[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "marchctl: unknown command %q\n", rest[0])
		fs.Usage()
		return exitUsage
	}
}

// jobView mirrors the service's job snapshot wire form.
type jobView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func (j jobView) terminal() bool {
	return j.Status == "done" || j.Status == "failed" || j.Status == "canceled"
}

// cmdSubmit posts a generation request. A cache hit answers immediately;
// a miss enqueues a job, and -wait polls it to completion and prints the
// result document.
func cmdSubmit(ctx context.Context, c *client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchctl submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.String("list", "", "fault list to generate a march test for (list1, list2, simple, ...)")
		timeoutMS = fs.Int64("timeout-ms", 0, "per-job deadline in milliseconds (0 = server default)")
		wait      = fs.Bool("wait", false, "poll the job to completion and print its result")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *list == "" {
		fmt.Fprintln(stderr, "marchctl submit: need -list")
		return exitUsage
	}
	body, err := json.Marshal(struct {
		List      string `json:"list"`
		TimeoutMS int64  `json:"timeout_ms,omitempty"`
	}{*list, *timeoutMS})
	if err != nil {
		fmt.Fprintln(stderr, "marchctl:", err)
		return exitUsage
	}
	return postAsync(ctx, c, "/v1/generate", "submit", body, *wait, stdout, stderr)
}

// postAsync is the shared tail of the commands that start an asynchronous
// job: POST body to path, then print the result document of a cache hit
// (200), or the accepted job (202) — or, with wait, poll it to completion
// and print its result. Any other status is reported as "<what> rejected".
func postAsync(ctx context.Context, c *client, path, what string, body []byte, wait bool, stdout, stderr io.Writer) int {
	resp, err := c.do(ctx, "POST", path, body)
	if err != nil {
		fmt.Fprintln(stderr, "marchctl:", err)
		return exitTransport
	}
	switch resp.status {
	case 200: // cache hit: the result document itself
		fmt.Fprintln(stdout, string(resp.body))
		return exitOK
	case 202:
		var accepted struct {
			Job  jobView `json:"job"`
			Poll string  `json:"poll"`
		}
		if err := json.Unmarshal(resp.body, &accepted); err != nil {
			fmt.Fprintln(stderr, "marchctl: bad 202 body:", err)
			return exitRemote
		}
		if !wait {
			fmt.Fprintf(stdout, "job %s %s; poll with: marchctl wait %s\n", accepted.Job.ID, accepted.Job.Status, accepted.Job.ID)
			return exitOK
		}
		return waitAndPrintResult(ctx, c, accepted.Job.ID, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "marchctl: %s rejected: HTTP %d: %s\n", what, resp.status, apiErrorOf(resp))
		return exitRemote
	}
}

// waitJob polls the job until it reaches a terminal state.
func waitJob(ctx context.Context, c *client, id string) (jobView, error) {
	for {
		var j jobView
		resp, err := c.getJSON(ctx, "/v1/jobs/"+id, &j)
		if err != nil {
			return jobView{}, err
		}
		if resp.status != 200 {
			return jobView{}, fmt.Errorf("HTTP %d: %s", resp.status, apiErrorOf(resp))
		}
		if j.terminal() {
			return j, nil
		}
		if err := sleepCtx(ctx, c.poll); err != nil {
			return jobView{}, err
		}
	}
}

// waitAndPrintResult polls a job to completion and prints its result
// document (fetched from the result endpoint: the exact cached bytes).
func waitAndPrintResult(ctx context.Context, c *client, id string, stdout, stderr io.Writer) int {
	j, err := waitJob(ctx, c, id)
	if err != nil {
		fmt.Fprintln(stderr, "marchctl:", err)
		return exitTransport
	}
	if j.Status != "done" {
		fmt.Fprintf(stderr, "marchctl: job %s %s: %s\n", j.ID, j.Status, j.Error)
		return exitRemote
	}
	resp, err := c.do(ctx, "GET", "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		fmt.Fprintln(stderr, "marchctl:", err)
		return exitTransport
	}
	if resp.status != 200 {
		fmt.Fprintf(stderr, "marchctl: result: HTTP %d: %s\n", resp.status, apiErrorOf(resp))
		return exitRemote
	}
	fmt.Fprintln(stdout, string(resp.body))
	return exitOK
}

// cmdWait polls a job id to completion and prints the final snapshot.
func cmdWait(ctx context.Context, c *client, args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: marchctl wait <job-id>")
		return exitUsage
	}
	j, err := waitJob(ctx, c, args[0])
	if err != nil {
		fmt.Fprintln(stderr, "marchctl:", err)
		return exitTransport
	}
	out, _ := json.MarshalIndent(j, "", "  ")
	fmt.Fprintln(stdout, string(out))
	if j.Status != "done" {
		return exitRemote
	}
	return exitOK
}

// cmdResult fetches a done job's result document.
func cmdResult(ctx context.Context, c *client, args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: marchctl result <job-id>")
		return exitUsage
	}
	resp, err := c.do(ctx, "GET", "/v1/jobs/"+args[0]+"/result", nil)
	if err != nil {
		fmt.Fprintln(stderr, "marchctl:", err)
		return exitTransport
	}
	if resp.status != 200 {
		fmt.Fprintf(stderr, "marchctl: HTTP %d: %s\n", resp.status, apiErrorOf(resp))
		return exitRemote
	}
	fmt.Fprintln(stdout, string(resp.body))
	return exitOK
}

// cmdSimulate runs a synchronous fault simulation.
func cmdSimulate(ctx context.Context, c *client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchctl simulate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		march = fs.String("march", "", "library march test to simulate")
		spec  = fs.String("spec", "", "march test in notation form")
		list  = fs.String("list", "list1", "fault list to simulate against")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *march == "" && *spec == "" {
		fmt.Fprintln(stderr, "marchctl simulate: need -march or -spec")
		return exitUsage
	}
	body, err := json.Marshal(struct {
		March struct {
			Name string `json:"name,omitempty"`
			Spec string `json:"spec,omitempty"`
		} `json:"march"`
		List string `json:"list"`
	}{struct {
		Name string `json:"name,omitempty"`
		Spec string `json:"spec,omitempty"`
	}{*march, *spec}, *list})
	if err != nil {
		fmt.Fprintln(stderr, "marchctl:", err)
		return exitUsage
	}
	resp, err := c.do(ctx, "POST", "/v1/simulate", body)
	if err != nil {
		fmt.Fprintln(stderr, "marchctl:", err)
		return exitTransport
	}
	if resp.status != 200 {
		fmt.Fprintf(stderr, "marchctl: HTTP %d: %s\n", resp.status, apiErrorOf(resp))
		return exitRemote
	}
	fmt.Fprintln(stdout, string(resp.body))
	return exitOK
}

// obsFlag collects repeated "-obs" values: each is one executed test and
// its syndrome, "NAME:id1,id2,..." (an empty id list means a clean run).
type obsFlag []string

func (o *obsFlag) String() string { return strings.Join(*o, " ") }
func (o *obsFlag) Set(v string) error {
	*o = append(*o, v)
	return nil
}

// cmdDiagnose posts an adaptive fault-localization request: the fault-model
// space and the syndromes of the march tests a tester has executed. The
// server answers with the consistent candidate set and — while it is still
// ambiguous — the follow-up march that best splits it. Like submit, a cache
// hit answers immediately and a miss enqueues a job.
func cmdDiagnose(ctx context.Context, c *client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchctl diagnose", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var obs obsFlag
	var (
		list      = fs.String("list", "", "fault-model space: the fault list the defect is assumed to come from")
		bodyFile  = fs.String("body", "", "full request JSON file (\"-\" reads stdin); overrides -list/-obs")
		timeoutMS = fs.Int64("timeout-ms", 0, "per-job deadline in milliseconds (0 = server default)")
		wait      = fs.Bool("wait", false, "poll the job to completion and print its result")
	)
	fs.Var(&obs, "obs", "executed test and its syndrome, \"NAME:M1#0@2,M3#1@0\" (repeatable; empty syndrome = clean run)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	var body []byte
	switch {
	case *bodyFile != "":
		var err error
		if *bodyFile == "-" {
			body, err = io.ReadAll(os.Stdin)
		} else {
			body, err = os.ReadFile(*bodyFile)
		}
		if err != nil {
			fmt.Fprintln(stderr, "marchctl:", err)
			return exitUsage
		}
	case *list != "" && len(obs) > 0:
		type marchRef struct {
			Name string `json:"name"`
		}
		type observation struct {
			March    marchRef `json:"march"`
			Syndrome []string `json:"syndrome"`
		}
		var obsDocs []observation
		for _, o := range obs {
			name, ids, _ := strings.Cut(o, ":")
			doc := observation{March: marchRef{Name: strings.TrimSpace(name)}, Syndrome: []string{}}
			for _, id := range strings.Split(ids, ",") {
				if id = strings.TrimSpace(id); id != "" {
					doc.Syndrome = append(doc.Syndrome, id)
				}
			}
			obsDocs = append(obsDocs, doc)
		}
		var err error
		body, err = json.Marshal(struct {
			List         string        `json:"list"`
			Observations []observation `json:"observations"`
			TimeoutMS    int64         `json:"timeout_ms,omitempty"`
		}{*list, obsDocs, *timeoutMS})
		if err != nil {
			fmt.Fprintln(stderr, "marchctl:", err)
			return exitUsage
		}
	default:
		fmt.Fprintln(stderr, "marchctl diagnose: need -body, or -list with at least one -obs")
		return exitUsage
	}
	return postAsync(ctx, c, "/v1/diagnose", "diagnose", body, *wait, stdout, stderr)
}

// campaignView mirrors the service's campaign snapshot wire form (the
// fields marchctl reads; the full document is printed verbatim).
type campaignView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

func (cv campaignView) terminal() bool {
	return cv.Status == "done" || cv.Status == "failed" || cv.Status == "interrupted"
}

// cmdCampaign submits a campaign spec (a JSON file, or "-" for stdin) and
// optionally polls it to completion. With -cluster the spec goes to the
// server's distributed fabric instead of its local campaign runner.
func cmdCampaign(ctx context.Context, c *client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchctl campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specFile = fs.String("spec", "", "campaign spec JSON file (\"-\" reads stdin)")
		wait     = fs.Bool("wait", false, "poll the campaign to completion")
		cluster  = fs.Bool("cluster", false, "submit to the distributed fabric (coordinator-mode marchd)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *specFile == "" {
		fmt.Fprintln(stderr, "marchctl campaign: need -spec")
		return exitUsage
	}
	var (
		body []byte
		err  error
	)
	if *specFile == "-" {
		body, err = io.ReadAll(os.Stdin)
	} else {
		body, err = os.ReadFile(*specFile)
	}
	if err != nil {
		fmt.Fprintln(stderr, "marchctl:", err)
		return exitUsage
	}
	if *cluster {
		return clusterCampaign(ctx, c, body, *wait, stdout, stderr)
	}
	resp, err := c.do(ctx, "POST", "/v1/campaigns", body)
	if err != nil {
		fmt.Fprintln(stderr, "marchctl:", err)
		return exitTransport
	}
	if resp.status != 200 && resp.status != 202 {
		fmt.Fprintf(stderr, "marchctl: campaign rejected: HTTP %d: %s\n", resp.status, apiErrorOf(resp))
		return exitRemote
	}
	var cv campaignView
	if err := json.Unmarshal(resp.body, &cv); err != nil {
		fmt.Fprintln(stderr, "marchctl: bad campaign body:", err)
		return exitRemote
	}
	if !*wait {
		fmt.Fprintln(stdout, string(resp.body))
		return exitOK
	}
	for !cv.terminal() {
		if err := sleepCtx(ctx, c.poll); err != nil {
			fmt.Fprintln(stderr, "marchctl:", err)
			return exitTransport
		}
		r, err := c.getJSON(ctx, "/v1/campaigns/"+cv.ID, &cv)
		if err != nil {
			fmt.Fprintln(stderr, "marchctl:", err)
			return exitTransport
		}
		if r.status != 200 {
			fmt.Fprintf(stderr, "marchctl: HTTP %d: %s\n", r.status, apiErrorOf(r))
			return exitRemote
		}
		resp = r
	}
	fmt.Fprintln(stdout, string(resp.body))
	if cv.Status != "done" {
		fmt.Fprintf(stderr, "marchctl: campaign %s %s: %s\n", cv.ID, cv.Status, cv.Error)
		return exitRemote
	}
	return exitOK
}

// sessionView mirrors the fabric coordinator's session status wire form
// (the fields marchctl reads; the full document is printed verbatim).
type sessionView struct {
	ID        string `json:"id"`
	Shards    int    `json:"shards"`
	Committed int    `json:"committed"`
	Done      bool   `json:"done"`
}

// clusterCampaign submits a spec to the distributed fabric and, with
// wait, polls the session until every shard is committed. The raw spec
// bytes are wrapped in the fabric submit envelope ({"spec": ...}) so the
// same spec file works for both local and cluster submission.
func clusterCampaign(ctx context.Context, c *client, spec []byte, wait bool, stdout, stderr io.Writer) int {
	body, err := json.Marshal(struct {
		Spec json.RawMessage `json:"spec"`
	}{json.RawMessage(spec)})
	if err != nil {
		fmt.Fprintln(stderr, "marchctl: bad spec file (not JSON):", err)
		return exitUsage
	}
	resp, err := c.do(ctx, "POST", "/v1/fabric/campaigns", body)
	if err != nil {
		fmt.Fprintln(stderr, "marchctl:", err)
		return exitTransport
	}
	if resp.status != 200 {
		fmt.Fprintf(stderr, "marchctl: cluster campaign rejected: HTTP %d: %s\n", resp.status, apiErrorOf(resp))
		return exitRemote
	}
	var sv sessionView
	if err := json.Unmarshal(resp.body, &sv); err != nil {
		fmt.Fprintln(stderr, "marchctl: bad session body:", err)
		return exitRemote
	}
	if !wait {
		fmt.Fprintln(stdout, string(resp.body))
		return exitOK
	}
	for !sv.Done {
		if err := sleepCtx(ctx, c.poll); err != nil {
			fmt.Fprintln(stderr, "marchctl:", err)
			return exitTransport
		}
		r, err := c.getJSON(ctx, "/v1/fabric/campaigns/"+sv.ID, &sv)
		if err != nil {
			fmt.Fprintln(stderr, "marchctl:", err)
			return exitTransport
		}
		if r.status != 200 {
			fmt.Fprintf(stderr, "marchctl: HTTP %d: %s\n", r.status, apiErrorOf(r))
			return exitRemote
		}
		resp = r
	}
	fmt.Fprintln(stdout, string(resp.body))
	return exitOK
}
