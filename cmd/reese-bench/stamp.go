package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Stamp records the environment a result was measured in. Results are
// only comparable when every field but Revision agrees.
type Stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// Revision is the VCS revision the benchmark was built from ("+dirty"
	// when the tree had local changes), or "unknown" outside a checkout.
	Revision string `json:"revision"`
}

func takeStamp() Stamp {
	return Stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Revision:   revision(),
	}
}

// comparable reports why two stamps may not be compared, or "" when
// they may.
func (s Stamp) comparable(o Stamp) string {
	switch {
	case s.GoVersion != o.GoVersion:
		return fmt.Sprintf("go version %s vs %s", s.GoVersion, o.GoVersion)
	case s.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", s.GOMAXPROCS, o.GOMAXPROCS)
	case s.NProc != o.NProc:
		return fmt.Sprintf("nproc %d vs %d", s.NProc, o.NProc)
	case s.CPUModel != o.CPUModel:
		return fmt.Sprintf("CPU %q vs %q", s.CPUModel, o.CPUModel)
	}
	return ""
}

func (s Stamp) String() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d cpu=%q rev=%s", s.GoVersion, s.GOMAXPROCS, s.NProc, s.CPUModel, s.Revision)
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

func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
