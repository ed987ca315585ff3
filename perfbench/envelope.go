package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// envelope is what every run records about itself, so two results can be
// compared knowing what produced them.
type envelope struct {
	Workload string `json:"workload"`
	// Commit is the checked-out commit when the checkout is a git work
	// tree, else "unknown"; SourceSHA256 identifies the program's source
	// either way.
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Ops          int     `json:"ops"`
	TailPct      float64 `json:"tail_percentile"`
	Trace        bool    `json:"trace"`
	Clients      int     `json:"clients"`
	// SimWorkers is the simulator's own fan-out, left at its default.
	SimWorkers int `json:"sim_workers"`
	SetupReps  int `json:"setup_reps"`
	// Clock is what the end-to-end times measure.
	Clock string `json:"clock"`
}

func newEnvelope(b *bench, name string, s spec, d time.Duration, trace bool) (envelope, error) {
	digest, err := sourceDigest(b.root)
	if err != nil {
		return envelope{}, err
	}
	return envelope{
		Workload:     name,
		Commit:       gitHead(b.root),
		SourceSHA256: digest,
		GoVersion:    runtime.Version(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Seed:         b.seed,
		Seconds:      d.Seconds(),
		TailPct:      s.tailPct(),
		Trace:        trace,
		Clients:      s.clients,
		SimWorkers:   runtime.GOMAXPROCS(0),
		SetupReps:    setupReps,
		Clock:        "process CPU time, user+system (getrusage RUSAGE_SELF)",
	}, nil
}

// sourceDigest hashes the program's Go sources and go.mod under root,
// skipping the benchmark and build output.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch rel {
			case ".git", ".bench_build", "perfbench":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gitHead reads the commit HEAD names from root/.git without running git.
func gitHead(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	f, err := os.Open(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if id, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
