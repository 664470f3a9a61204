package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// machineStamp travels with every recorded result so a number is never
// read without the hardware it was taken on.
type machineStamp struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GitSHA     string  `json:"git_sha"`
	Load1      float64 `json:"load_1min"`
}

func stampMachine() machineStamp {
	return machineStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		GitSHA:     gitSHA(),
		Load1:      loadAverage(),
	}
}

// procField returns the value of the first "key : value" line of a /proc
// file, "unknown" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(name) == key {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// gitSHA is the commit under test; a checkout that is not a git
// repository (the driver's) reports "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// heapCount is a reading of the allocator's cumulative counters.
type heapCount struct{ objects, bytes uint64 }

func heapNow() heapCount {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCount{ms.Mallocs, ms.TotalAlloc}
}

// since returns what has been allocated after the earlier reading h.
func (h heapCount) since() heapCount {
	now := heapNow()
	return heapCount{now.objects - h.objects, now.bytes - h.bytes}
}

// peakRSSMB is VmHWM of this process, the high-water mark of its resident
// set, in MB; where /proc is missing it falls back to the Go runtime's
// view of memory obtained from the OS.
func peakRSSMB() float64 {
	if kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64); err == nil {
		return kb / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// stealNow is the time the hypervisor has withheld from this machine's
// CPUs while they had work to do, summed over the CPUs (/proc/stat counts it
// in 10 ms ticks); 0 where /proc/stat is missing.
func stealNow() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(fields[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}
