package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// minBeyond is the percentile-hygiene rule: a percentile is only reported
// when at least this many samples lie beyond it.
const minBeyond = 10

// dist is one regime's latency samples (cold, warm, post-patch, certified
// and budget-bound samples never share a dist).
type dist struct {
	samples []time.Duration
	sorted  bool
}

// offHeapCap is how many samples one timed-phase distribution holds
// outside the Go heap (64 MiB of address space, committed only as written).
const offHeapCap = 1 << 23

// newOffHeapDist returns a dist whose samples live in anonymous memory
// mapped outside the Go heap. The latencies a run collects grow with its
// length; on the heap they would be counted in the live-heap metric the run
// measures beside them. Samples past the mapping's capacity spill onto the
// heap; the mapping lives until the process exits.
func newOffHeapDist() *dist {
	b, err := syscall.Mmap(-1, 0, offHeapCap*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return &dist{}
	}
	return &dist{samples: unsafe.Slice((*time.Duration)(unsafe.Pointer(&b[0])), offHeapCap)[:0]}
}

func (d *dist) add(x time.Duration) { d.samples = append(d.samples, x); d.sorted = false }

func (d *dist) merge(o *dist) {
	d.samples = append(d.samples, o.samples...)
	d.sorted = false
}

func (d *dist) n() int { return len(d.samples) }

func (d *dist) sort() {
	if !d.sorted {
		sort.Slice(d.samples, func(i, j int) bool { return d.samples[i] < d.samples[j] })
		d.sorted = true
	}
}

// percentileIndex is the nearest-rank index of the p-th percentile in n
// sorted samples: the smallest index whose rank covers p per cent.
func percentileIndex(n int, p float64) int {
	if n <= 0 {
		return -1
	}
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples strictly past the p-th percentile's index.
func beyond(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	return n - 1 - percentileIndex(n, p)
}

// percentile returns the p-th percentile and the number of samples beyond
// it. A tail percentile (p > 50) is refused when fewer than minBeyond
// samples lie beyond it; the median only needs one sample.
func (d *dist) percentile(p float64) (time.Duration, int, error) {
	n := d.n()
	b := beyond(n, p)
	switch {
	case n == 0:
		return 0, 0, fmt.Errorf("p%g: no samples", p)
	case p > 50 && b < minBeyond:
		return 0, b, fmt.Errorf("p%g over %d samples has %d beyond it, need %d", p, n, b, minBeyond)
	}
	d.sort()
	return d.samples[percentileIndex(n, p)], b, nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) in its default
// "exclusive" method: position k*(n+1)/4, the index clamped to 1..n-1 and
// the value interpolated (or extrapolated past a clamp) linearly.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	at := func(k int) float64 {
		m := n + 1
		j := min(max(k*m/4, 1), n-1)
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
