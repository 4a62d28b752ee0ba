package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies what a result was measured on and with which inputs.
type stamp struct {
	Commit     string      `json:"commit"`
	SourceHash string      `json:"source_sha256"`
	GoVersion  string      `json:"go_version"`
	CPU        string      `json:"cpu"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Seconds    int         `json:"seconds"`
	Traced     bool        `json:"traced"`
	Config     interface{} `json:"config"`
}

func newStamp(name string, seed int64, seconds int, traced bool) stamp {
	return stamp{
		Commit:     gitCommit(),
		SourceHash: sourceHash(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   name,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		Config:     workloadConfig[name],
	}
}

// workloadConfig describes each workload's fixed configuration for the
// stamp; the seed supplies everything else.
var workloadConfig = map[string]interface{}{
	"repro": map[string]interface{}{
		"config": "experiments.DefaultConfig", "demand_seed": "seed",
		"trace_days": 507, "windows": 13, "tree": "5/4", "extensions": true, "search_orders": false,
		"setups": reproSetups,
	},
	"serve-dp":   dpShape,
	"serve-milp": milpShape,
	"fleet":      fleetConfig,
}

// gitCommit reads HEAD from a .git directory in the working directory,
// without running git; outside a repository it reports "none".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 && fields[1] == name {
			return fields[0]
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under the working
// directory, so a result names the exact code it measured even where the
// checkout carries no commit.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are simply left out of the digest
		}
		if d.IsDir() && (p == buildDir || p == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
