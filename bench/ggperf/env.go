package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// envRecord is the environment a result was measured in; every result
// file carries it so two files can be told apart before their numbers
// are compared.
type envRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	TmpFS      string  `json:"tmp_fs"`
	LoadAvg1   float64 `json:"load_avg_1m"`
	// Noisy marks a run started on a machine that was already busy
	// (1-minute load average above the CPU count); -compare refuses to
	// call its deltas real.
	Noisy  bool    `json:"noisy"`
	BuildS float64 `json:"build_s,omitempty"`
}

func captureEnv(opt options, tmp string) envRecord {
	e := envRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     opt.commit,
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		TmpFS:      fsType(tmp),
		BuildS:     opt.buildS,
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	if f := strings.Fields(firstLine("/proc/loadavg")); len(f) > 0 {
		e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
	}
	e.Noisy = e.LoadAvg1 > float64(e.NProc)
	return e
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// fsType names the filesystem holding dir: the longest mount point in
// /proc/mounts that prefixes it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, kind := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mount := fields[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, kind = mount, fields[2]
		}
	}
	return kind
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
