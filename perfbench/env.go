package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// commit is the source revision, set at build time by run.sh
// (-ldflags "-X main.commit=..."); empty when the tree is not a git
// checkout.
var commit string

// envStamp identifies the toolchain and machine a result was measured on.
// Results are comparable across runs only when these match.
type envStamp struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CgroupCPUs float64 `json:"cgroup_cpus,omitempty"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	Warning    string  `json:"warning,omitempty"`
}

func stampEnv() envStamp {
	e := envStamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CgroupCPUs: cgroupCPUs(),
		CPUModel:   cpuModel(),
		Commit:     commit,
		SourceHash: sourceHash("."),
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	switch {
	case e.GOMAXPROCS > e.NumCPU:
		e.Warning = fmt.Sprintf("GOMAXPROCS=%d exceeds nproc=%d", e.GOMAXPROCS, e.NumCPU)
	case e.CgroupCPUs > 0 && float64(e.GOMAXPROCS) > e.CgroupCPUs:
		e.Warning = fmt.Sprintf("GOMAXPROCS=%d exceeds the cgroup CPU quota %.2f", e.GOMAXPROCS, e.CgroupCPUs)
	}
	return e
}

// cgroupCPUs reads the cgroup v2 CPU quota (cpu.max), 0 when unlimited or
// unknown. Before Go 1.25 GOMAXPROCS ignores it.
func cgroupCPUs() float64 {
	b, err := os.ReadFile("/sys/fs/cgroup/cpu.max")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) != 2 || f[0] == "max" {
		return 0
	}
	quota, err1 := strconv.ParseFloat(f[0], 64)
	period, err2 := strconv.ParseFloat(f[1], 64)
	if err1 != nil || err2 != nil || period == 0 {
		return 0
	}
	return quota / period
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests the Go sources and go.mod files under root (the
// checkout the benchmark runs from), so a result is tied to the code it
// measured even where there is no git metadata. Hidden directories, the
// build directory among them, are skipped.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
