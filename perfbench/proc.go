package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// peakRSS returns VmHWM, the peak resident set size, of /proc/<pid>
// ("self" for this process) in bytes.
func peakRSS(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// stealMeter measures the share of the machine's CPU time that the
// hypervisor gave to other guests: the steal column of /proc/stat. A
// run that met much of it ran on a slowed host.
type stealMeter struct{ total, steal int64 }

func startSteal() (stealMeter, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMeter{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealMeter{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var m stealMeter
	// user nice system idle iowait irq softirq steal
	for i, field := range f[1:9] {
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return stealMeter{}, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		m.total += n
		if i == 7 {
			m.steal = n
		}
	}
	return m, nil
}

// share returns the stolen share of CPU time since m was started.
func (m stealMeter) share() (float64, error) {
	now, err := startSteal()
	if err != nil {
		return 0, err
	}
	return ratio(float64(now.steal-m.steal), float64(now.total-m.total)), nil
}

// resetPeakRSS sets this process's VmHWM back to its current resident
// set size (Linux 4.0 and later). It changes no file.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procCPU returns the user plus system CPU time of process pid from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis start at field 3, so utime and stime (fields
	// 14 and 15) are at indices 11 and 12.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, field := range f[11:13] {
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}
