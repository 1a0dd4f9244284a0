package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const fsyncProbeSamples = 200

// fsyncProbe reports the median of fsyncProbeSamples 4 KiB write+fsync
// rounds in dir, in microseconds: the host's durability cost, which the
// ingest metrics scale with. In this sandbox it is the page cache's cost,
// not a device's.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	lat := make([]int64, 0, fsyncProbeSamples)
	for i := 0; i < fsyncProbeSamples; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return nsToUs(quantile(lat, 0.5)), nil
}

// hostInfo is the provenance header of a report.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Lanes      int     `json:"lanes"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	DataFS     string  `json:"data_fs"`
	FsyncP50Us float64 `json:"host.fsync_p50_us"`
	Commit     string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
}

func readHost(cfg *config) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Lanes:      cfg.lanes,
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		DataFS:     fsType(cfg.outDir),
		Commit:     gitCommit(),
		Seed:       cfg.seed,
		WindowS:    cfg.measure.Seconds(),
		WarmupS:    cfg.warm.Seconds(),
	}
	if p, err := fsyncProbe(cfg.outDir); err == nil {
		h.FsyncP50Us = p
	}
	return h
}

func kernelRelease() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// fsType names the filesystem holding dir, from the longest matching
// mount point in /proc/self/mounts.
func fsType(dir string) string {
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	abs := dir
	if wd, err := os.Getwd(); err == nil && !strings.HasPrefix(dir, "/") {
		abs = wd + "/" + dir
	}
	best, kind := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if strings.HasPrefix(abs, mp) && len(mp) >= len(best) {
			best, kind = mp, fields[2]
		}
	}
	return kind
}

// gitCommit is the checkout's commit, or "unknown" outside a repository
// (the driver's checkouts are plain directories).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (h hostInfo) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d lanes=%d %s kernel=%s data-fs=%s fsync-p50=%.0fus (page cache, not a device) commit=%s seed=%d window=%.1fs warm-up=%.1fs",
		h.NProc, h.GOMAXPROCS, h.Lanes, h.GoVersion, h.Kernel, h.DataFS, h.FsyncP50Us, h.Commit, h.Seed, h.WindowS, h.WarmupS)
}
