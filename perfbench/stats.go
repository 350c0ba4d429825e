package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailMin is the number of samples a reported percentile must leave beyond
// it: a p99 over 300 samples would rest on 3 values, so it is lowered to the
// highest rank that still has tailMin samples above it.
const tailMin = 10

// pct is one reported percentile: the value, the percentile it actually
// sits at after the tail rule, and the sample count behind it.
type pct struct {
	Value float64
	At    float64 // effective percentile in [0, 100]
	N     int
}

// percentile returns the nearest-rank q-th percentile (0 < q < 100) of xs,
// lowered when needed so that at least tailMin samples lie beyond it. It
// reports ok=false when fewer than tailMin+1 samples exist, since no rank
// then leaves a tail of tailMin. xs is not modified.
func percentile(xs []float64, q float64) (pct, bool) {
	n := len(xs)
	if n <= tailMin {
		return pct{N: n}, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q/100*float64(n))) - 1 // 0-based nearest rank
	if rank < 0 {
		rank = 0
	}
	if maxRank := n - 1 - tailMin; rank > maxRank {
		rank = maxRank
	}
	return pct{Value: s[rank], At: 100 * float64(rank+1) / float64(n), N: n}, true
}

// pctValue is percentile's value, or 0 when there are too few samples; for
// per-layer figures where "no samples" reads as zero work.
func pctValue(xs []float64, q float64) float64 {
	p, _ := percentile(xs, q)
	return p.Value
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark. Every workload
// runs in its own process, so one workload's peak never shows in another's.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
