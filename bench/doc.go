package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// document is what -out writes and -compare reads: the environment the
// numbers were taken in, then every run's metrics.
type document struct {
	Env  *envInfo  `json:"env"`
	Runs []*result `json:"runs"`
}

type envInfo struct {
	Commit        string              `json:"commit"`
	Seed          int64               `json:"seed"`
	NProc         int                 `json:"nproc"`
	GoMaxProcs    int                 `json:"gomaxprocs"`
	GoVersion     string              `json:"go_version"`
	Kernel        string              `json:"kernel"`
	LoadAvgStart  string              `json:"loadavg_start"`
	LoadAvgEnd    string              `json:"loadavg_end"`
	Seconds       float64             `json:"measured_seconds"`
	Windows       int                 `json:"windows"`
	WindowSeconds map[string]float64  `json:"window_seconds"`
	Connections   int                 `json:"connections"`
	ServerFlags   map[string][]string `json:"server_flags"`
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func captureEnv(root string, seed int64, seconds float64) *envInfo {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	e := &envInfo{
		Commit: commit, Seed: seed, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: readTrim("/proc/sys/kernel/osrelease"),
		LoadAvgStart: readTrim("/proc/loadavg"), Seconds: seconds, Windows: windows,
		Connections: connections, WindowSeconds: map[string]float64{}, ServerFlags: map[string][]string{},
	}
	for _, w := range workloads {
		e.WindowSeconds[w.name] = (1 - w.bootShare) * seconds / windows
		s := &site{w: w, dbPath: "<catalog>", dir: "<dir>"}
		e.ServerFlags[w.name] = s.serverArgs()
	}
	return e
}

func (e *envInfo) finish() { e.LoadAvgEnd = readTrim("/proc/loadavg") }
