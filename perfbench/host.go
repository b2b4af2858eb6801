package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord is printed beside every run's metrics so a noisy run can be
// told from a regression, and captures from different hosts compared as
// ratios of the anchor loop.
type hostRecord struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealShare float64 `json:"steal_share"` // stolen share of all CPU time during the run, from /proc/stat
	AnchorMs   float64 `json:"anchor_ms"`   // median time of the fixed ALU loop, taken at start and end
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes returns the machine's total and stolen jiffies from the first
// line of /proc/stat; ok is false where the file is unavailable.
func cpuTimes() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9, 10) are already inside user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// anchorSink keeps the anchor loop's result live.
var anchorSink uint64

// anchorLoop times a fixed xorshift loop: pure ALU work with no memory
// traffic, so it moves only with the CPU's speed and the host's contention.
func anchorLoop() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	anchorSink += x
	return time.Since(start)
}

// hostProbe measures the host record across a run: construct it at the
// start, call done at the end.
type hostProbe struct {
	total0, steal0 uint64
	haveStat       bool
	anchors        []float64
}

func startHostProbe() *hostProbe {
	p := &hostProbe{}
	p.total0, p.steal0, p.haveStat = cpuTimes()
	for i := 0; i < 3; i++ {
		p.anchors = append(p.anchors, ms(anchorLoop()))
	}
	return p
}

func (p *hostProbe) done() hostRecord {
	for i := 0; i < 3; i++ {
		p.anchors = append(p.anchors, ms(anchorLoop()))
	}
	rec := hostRecord{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		AnchorMs:   median(p.anchors),
	}
	if total, steal, ok := cpuTimes(); ok && p.haveStat && total > p.total0 {
		rec.StealShare = float64(steal-p.steal0) / float64(total-p.total0)
	}
	return rec
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPUSeconds is the cumulative CPU time the runtime has spent in GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// allocBytes is the cumulative heap allocation of the process, exact to
// the byte (ReadMemStats flushes every per-P cache).
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[max(0, min(k, len(s)-1))]
}
