package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-quantile (0..1) of sorted samples by the
// nearest-rank rule; 0 for no samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// percentileUS is percentile for nanosecond samples, in microseconds.
func percentileUS(sorted []int64, p float64) float64 { return float64(percentile(sorted, p)) / 1e3 }

func sortInt64(s []int64) []int64 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median of values (mean of the middle two for even counts); 0 for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostProbe measures how fast the host is right now, with work that is
// the benchmark's own and never the program's: random lookups in a map
// too big for the core's private caches, which is what the server's
// commits mostly wait for too. On the shared hosts this benchmark runs
// on, that speed moves by half within seconds and drifts by a fifth over
// an hour, and everything the server does moves with it (README.md,
// "Correcting for the host"). A timed round is bracketed by two probes
// and its timings are divided by their mean slowdown.
type hostProbe struct {
	m    map[uint64]uint64
	sink uint64 // keeps the lookups from being optimised away
}

const (
	probeKeys    = 200_000 // a Go map of this many entries is about 8 MB: past the 2 MB L2, inside any L3
	probeLookups = 500_000 // 15–35 ms a probe
	// probeRefNS is the cost of one lookup on the reference host: the
	// sandbox this was written in, at its quietest. It only fixes the
	// scale of the corrected numbers.
	probeRefNS = 30.0
	probeMul   = 2654435761 // spreads the keys (Knuth's multiplicative hash constant)
)

func newHostProbe() *hostProbe {
	p := &hostProbe{m: make(map[uint64]uint64, probeKeys)}
	for k := uint64(0); k < probeKeys; k++ {
		p.m[k*probeMul] = k
	}
	return p
}

// slowdown runs one probe and returns its cost per lookup relative to
// the reference host: 1 there, 2 where the same lookups take twice as long.
func (p *hostProbe) slowdown() float64 {
	t := time.Now()
	for j := uint64(0); j < probeLookups; j++ {
		p.sink += p.m[(j*7919%probeKeys)*probeMul]
	}
	return float64(time.Since(t)) / probeLookups / probeRefNS
}

// spread is the interquartile range of values as a share of their
// median — the steadiness number the benchmark's bounds are judged by.
// Quartiles are linearly interpolated; fewer than two values spread 0.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(x)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / m
}

// ---- /proc readers (Linux; the benchmark's CPU and memory metrics exist only there) ----

const clockTick = 100 // USER_HZ: fixed at 100 on every Linux ABI Go supports

// procCPUSeconds returns a process's user+system CPU time so far.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted after its closing paren.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return float64(utime+stime) / clockTick, nil
}

// serverCPUSeconds returns the CPU time of every thread of a process
// from the scheduler's own clock (/proc/<pid>/task/<tid>/schedstat,
// nanoseconds), which is exact for a process that is off the CPU while
// it is read, as the server is: the reader runs on the same CPU. The
// 10 ms ticks of /proc/<pid>/stat are too coarse to difference over half
// a second and are the fallback where the kernel keeps no schedstat.
func serverCPUSeconds(pid int) (float64, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var ns float64
	read := 0
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread ended meanwhile, or the kernel keeps no schedstat
		}
		first, _, _ := strings.Cut(string(b), " ")
		v, err := strconv.ParseFloat(first, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed schedstat of %d/%s: %q", pid, t.Name(), b)
		}
		ns += v
		read++
	}
	if read == 0 {
		return procCPUSeconds(pid)
	}
	return ns / 1e9, nil
}

// procPeakRSSMB returns a process's resident-set high-water mark.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTimes returns the machine's total and stolen CPU ticks so far.
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue // "cpu"
		}
		v, _ := strconv.ParseFloat(f, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal; guest time is already inside user
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

func loadAverage() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], "/")
}
