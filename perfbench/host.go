package main

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}, errors.New("empty /proc/stat")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, errors.New("unexpected /proc/stat cpu line")
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, s := range fields[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealSince is the share of all CPU time the hypervisor stole since
// earlier.
func (t cpuTimes) stealSince(earlier cpuTimes) float64 {
	if d := t.total - earlier.total; d > 0 {
		return (t.steal - earlier.steal) / d
	}
	return 0
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the checkout's commit, or "none" when the checkout is
// not a git repository (the sources hash identifies the code either
// way). Git is kept from searching directories above the checkout.
func commitOf(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}
