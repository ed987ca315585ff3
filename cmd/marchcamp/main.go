// Command marchcamp runs batch campaigns: declarative parameter sweeps over
// the march generator (cross-product of fault lists, generator profiles,
// order constraints, memory sizes, word widths and array topologies),
// executed as a deterministic shard plan with durable checkpoints. A killed
// run resumes exactly where it stopped and yields a result set
// byte-identical to an uninterrupted run. See DESIGN.md §9.
//
// Usage:
//
//	marchcamp example > sweep.json        # starter spec to edit
//	marchcamp plan -spec sweep.json       # campaign id, units, shards
//	marchcamp run -spec sweep.json -dir campaigns/
//	marchcamp run -spec sweep.json -dir campaigns/ -resume
//	marchcamp report -dir campaigns/      # coverage/length matrix
//
// Exit codes:
//
//	0  success
//	1  run, store or report failure (including an interrupted run)
//	2  usage error (bad flags, unreadable or invalid spec)
//	4  report: the result set is incomplete — the campaign has shards not
//	   yet committed (interrupted run, or a distributed run still in
//	   flight). The partial report is still printed; scripts gating on a
//	   finished sweep must treat 4 as "come back later", not as data.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"marchgen/internal/buildinfo"
	"marchgen/internal/campaign"
	"marchgen/internal/store"
)

// Exit codes of the marchcamp command.
const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
	// exitIncomplete: report ran on a campaign whose checkpoint commits
	// fewer shards than its plan — the printed matrix is partial.
	exitIncomplete = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: marchcamp <example|plan|run|report> [flags]  (or -version)")
	fmt.Fprintln(stderr, "  example              print a starter campaign spec")
	fmt.Fprintln(stderr, "  plan   -spec FILE    show the deterministic shard plan")
	fmt.Fprintln(stderr, "  run    -spec FILE -dir DIR [-resume] [-workers N] [-quiet]")
	fmt.Fprintln(stderr, "  report -dir DIR [-id CAMPAIGN]")
	return exitUsage
}

// run is main with the process plumbing factored out so tests can drive
// the command end to end and assert on its exit code and output.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "-version", "--version", "version":
		buildinfo.Fprint(stdout, "marchcamp")
		return exitOK
	case "example":
		return runExample(stdout)
	case "plan":
		return runPlan(args[1:], stdout, stderr)
	case "run":
		return runRun(args[1:], stdout, stderr)
	case "report":
		return runReport(args[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "marchcamp: unknown subcommand %q\n", args[0])
	return usage(stderr)
}

// exampleSpec is the starter sweep `marchcamp example` prints: the paper's
// Table 1 corner (list1/list2 at the default configuration) widened by one
// step along each axis, plus a small optimizer budget sweep for the
// length-vs-budget frontier (budget 0 keeps the unoptimized baseline row).
func exampleSpec() campaign.Spec {
	return campaign.Spec{
		Name:       "table1-sweep",
		Lists:      []string{"list2", "list1"},
		Profiles:   []string{campaign.ProfileStandard, campaign.ProfileAggressive},
		Orders:     []string{"free", "up"},
		Sizes:      []int{4},
		Widths:     []int{1, 4},
		Topologies: []string{"", "8x8"},
		Optimize:   []campaign.OptAxis{{}, {Budget: 200}, {Budget: 400}},
		ShardSize:  4,
	}
}

func runExample(stdout io.Writer) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(exampleSpec())
	return exitOK
}

// loadSpec reads and validates a campaign spec file.
func loadSpec(path string, stderr io.Writer) (campaign.Spec, bool) {
	var spec campaign.Spec
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "marchcamp:", err)
		return spec, false
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		fmt.Fprintf(stderr, "marchcamp: spec %s: %v\n", path, err)
		return spec, false
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(stderr, "marchcamp:", err)
		return spec, false
	}
	return spec, true
}

func runPlan(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchcamp plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "campaign spec file (JSON)")
	if err := fs.Parse(args); err != nil || *specPath == "" {
		if *specPath == "" && err == nil {
			fmt.Fprintln(stderr, "marchcamp plan: need -spec")
		}
		return exitUsage
	}
	spec, ok := loadSpec(*specPath, stderr)
	if !ok {
		return exitUsage
	}
	shards := campaign.Plan(spec)
	fmt.Fprintf(stdout, "campaign %s (%s)\n", spec.ID(), spec.Hash())
	fmt.Fprintf(stdout, "units %d, shards %d\n", spec.Units(), len(shards))
	for _, sh := range shards {
		for _, u := range sh.Units {
			fmt.Fprintf(stdout, "  shard %3d  unit %3d  %s  list=%s profile=%s order=%s n=%d w=%d p=%s%s topo=%s opt=%s\n",
				sh.ID, u.Seq, u.ID(), u.List, u.Profile, u.Order, u.Size, u.Width,
				portsOrOne(u), transparentMark(u), topoOrDash(u.Topology), optOrDash(u))
		}
	}
	return exitOK
}

func topoOrDash(t string) string {
	if t == "" {
		return "-"
	}
	return t
}

func optOrDash(u campaign.Unit) string {
	if u.OptBudget == 0 {
		return "-"
	}
	s := fmt.Sprintf("b%d/s%d", u.OptBudget, u.OptSeed)
	if u.OptBISTWeight > 0 {
		s += fmt.Sprintf("/w%g", u.OptBISTWeight)
	}
	return s
}

func portsOrOne(u campaign.Unit) string {
	if u.Ports <= 1 {
		return "1"
	}
	return fmt.Sprint(u.Ports)
}

func transparentMark(u campaign.Unit) string {
	if u.Transparent {
		return " transparent"
	}
	return ""
}

func runRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchcamp run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath = fs.String("spec", "", "campaign spec file (JSON)")
		dir      = fs.String("dir", "", "store root directory (one subdirectory per campaign)")
		resume   = fs.Bool("resume", false, "continue a previously interrupted campaign")
		workers  = fs.Int("workers", 0, "concurrent shards (0 = GOMAXPROCS)")
		quiet    = fs.Bool("quiet", false, "suppress per-shard progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *specPath == "" || *dir == "" {
		fmt.Fprintln(stderr, "marchcamp run: need -spec and -dir")
		return exitUsage
	}
	spec, ok := loadSpec(*specPath, stderr)
	if !ok {
		return exitUsage
	}

	// SIGINT/SIGTERM cancel the run; the store keeps its last checkpoint
	// and a later -resume continues from it (a SIGKILL behaves the same,
	// minus the polite exit message).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := campaign.RunOptions{Workers: *workers, Resume: *resume}
	if !*quiet {
		opts.OnEvent = func(ev campaign.Event) {
			if ev.Kind == campaign.EventShardCommitted {
				fmt.Fprintf(stderr, "marchcamp: shard %d committed (%d total)\n", ev.Shard, ev.Committed)
			}
		}
	}
	sum, err := campaign.Run(ctx, spec, *dir, opts)
	switch {
	case errors.Is(err, campaign.ErrNeedsResume):
		fmt.Fprintln(stderr, "marchcamp:", err)
		return exitError
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(stderr, "marchcamp: interrupted; rerun with -resume to continue\n")
		return exitError
	case err != nil:
		fmt.Fprintln(stderr, "marchcamp:", err)
		return exitError
	}
	fmt.Fprintf(stdout, "campaign %s complete: %d units in %d shards (%d resumed, %d unit errors)\n",
		sum.ID, sum.Units, sum.Shards, sum.ResumedFrom, sum.UnitErrors)
	fmt.Fprintf(stdout, "results: %s\n", sum.Dir)
	return exitOK
}

func runReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchcamp report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir = fs.String("dir", "", "store root directory (as passed to run)")
		id  = fs.String("id", "", "campaign id (needed when the root holds several campaigns)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "marchcamp report: need -dir")
		return exitUsage
	}
	campDir, ok := resolveCampaignDir(*dir, *id, stderr)
	if !ok {
		return exitError
	}
	if err := campaign.Report(stdout, campDir); err != nil {
		fmt.Fprintln(stderr, "marchcamp:", err)
		return exitError
	}
	// Completeness gate: the report above renders whatever is committed,
	// but a partial result set must not exit 0 — CI recipes pipe the
	// matrix into papers and dashboards and need a machine-checkable
	// "this sweep is finished" signal (exit 4 otherwise).
	sf, err := campaign.LoadSpecFile(campDir)
	if err != nil {
		fmt.Fprintln(stderr, "marchcamp:", err)
		return exitError
	}
	cp, err := store.ReadCheckpoint(campDir)
	if err != nil {
		fmt.Fprintln(stderr, "marchcamp:", err)
		return exitError
	}
	if planned := len(campaign.Plan(sf.Spec)); cp.Shards < planned {
		fmt.Fprintf(stderr, "marchcamp: campaign %s incomplete: %d/%d shards committed (resume the run, or wait for the cluster to finish)\n",
			sf.ID, cp.Shards, planned)
		return exitIncomplete
	}
	return exitOK
}

// resolveCampaignDir finds the campaign directory under root: the named id
// if given, the single campaign if the root holds exactly one, an error
// listing the candidates otherwise.
func resolveCampaignDir(root, id string, stderr io.Writer) (string, bool) {
	if id != "" {
		return filepath.Join(root, id), true
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		fmt.Fprintln(stderr, "marchcamp:", err)
		return "", false
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "c-") {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	switch len(ids) {
	case 1:
		return filepath.Join(root, ids[0]), true
	case 0:
		fmt.Fprintf(stderr, "marchcamp: no campaigns under %s\n", root)
		return "", false
	}
	fmt.Fprintf(stderr, "marchcamp: %d campaigns under %s; pick one with -id: %s\n",
		len(ids), root, strings.Join(ids, " "))
	return "", false
}
