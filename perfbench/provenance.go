package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// provenance tags a result with what produced it and how busy the host was
// when it started, so a noisy run can be attributed. None of it is gated.
func provenance(opt options, threads int) map[string]any {
	return map[string]any{
		"workload":   opt.workload,
		"seed":       opt.seed,
		"size":       opt.size,
		"trace":      opt.trace,
		"commit":     opt.commit,
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"threads":    threads,
		"loadavg":    loadAvg(),
	}
}

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// cpuStat is the aggregate CPU line of /proc/stat: total and steal ticks.
type cpuStat struct{ total, steal int64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		if i < 8 { // user..steal; guest time is already inside user
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// userHZ is the tick rate of /proc/stat's counters on Linux.
const userHZ = 100

// stealSeconds is the CPU time the hypervisor withheld from this machine's
// vCPUs between a and b, summed over them.
func stealSeconds(a, b cpuStat) float64 {
	return float64(b.steal-a.steal) / userHZ
}

// stealPct is the share of CPU time the hypervisor took between a and b.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}
