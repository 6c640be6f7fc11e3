package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"graphite/internal/sched"
)

// threads pins GOMAXPROCS and every kernel thread count: the benchmark is
// sized for a 2-vCPU host and must not change shape on a larger one.
const threads = 2

// usage is a point-in-time reading of the process's own cost.
type usage struct {
	cpu       time.Duration // user + system
	peakRSSMB float64       // high-water resident set (the kernel's VmHWM)
	mem       runtime.MemStats
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	runtime.ReadMemStats(&u.mem)
	return u
}

// llcBytes returns the size of the largest cache sysfs reports for cpu0, or
// 0 when sysfs is not readable.
func llcBytes() int64 {
	files, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	var best int64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// streamTriad measures a[i] = b[i] + s*c[i] over three float32 arrays of
// total footprint bytes, on the same scheduler and thread count the kernels
// use, and returns the best GB/s of reps passes (12 bytes moved per element,
// write-allocate traffic not counted). It is the memory-bandwidth
// denominator for kernels.agg_bw_share.
func streamTriad(bytes int64, reps int) float64 {
	n := int(bytes / 12)
	a, b, c := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := 0.0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		sched.Dynamic(n, 1<<16, threads, func(s, e int) {
			as, bs, cs := a[s:e], b[s:e], c[s:e]
			for i := range as {
				as[i] = bs[i] + 3*cs[i]
			}
		})
		if gbps := float64(n) * 12 / time.Since(t0).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	return best
}
