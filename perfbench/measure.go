package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is one reading of the process's host-side cost counters.
type hostSample struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU of the whole process
	alloc   uint64        // runtime.MemStats.TotalAlloc
	mallocs uint64        // runtime.MemStats.Mallocs
}

// readHost takes a hostSample. ReadMemStats stops the world briefly, so it
// is called only at phase boundaries, never inside a simulated event loop.
func readHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{wall: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// processCPU reports the user+system CPU time the process has used,
// garbage-collector threads included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// vmHWM reports the process's peak resident set size in bytes, as the
// kernel's VmHWM. Unlike getrusage's maxrss, it starts afresh at exec, so
// a child process reports only its own peak.
func vmHWM() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cost is the host cost of one phase, or the sum of several.
type cost struct {
	wall, cpu      time.Duration
	alloc, mallocs uint64
}

func (c *cost) add(from, to hostSample) {
	c.wall += to.wall.Sub(from.wall)
	c.cpu += to.cpu - from.cpu
	c.alloc += to.alloc - from.alloc
	c.mallocs += to.mallocs - from.mallocs
}

// median returns the median of xs (the mean of the middle pair for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
