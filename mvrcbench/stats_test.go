package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileIndex(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 50, 49}, {100, 99, 98}, {100, 90, 89}, {101, 50, 50},
		{1, 50, 0}, {1, 99, 0}, {10, 100, 9}, {0, 50, -1},
	} {
		if got := percentileIndex(c.n, c.p); got != c.want {
			t.Errorf("percentileIndex(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func samples(n int) *dist {
	d := &dist{}
	for i := n; i > 0; i-- {
		d.add(time.Duration(i) * time.Microsecond)
	}
	return d
}

func TestTenBeyondRule(t *testing.T) {
	// 1000 samples leave exactly 10 beyond p99; 999 leave 9.
	v, b, err := samples(1000).percentile(99)
	if err != nil || b != 10 || v != 990*time.Microsecond {
		t.Fatalf("p99 of 1000: %v, %d beyond, %v", v, b, err)
	}
	if _, b, err := samples(999).percentile(99); err == nil || b != 9 {
		t.Fatalf("p99 of 999 must be refused with 9 beyond, got %d beyond, %v", b, err)
	}
	if _, b, err := samples(100).percentile(90); err != nil || b != 10 {
		t.Fatalf("p90 of 100 leaves 10 beyond and must pass: %d beyond, %v", b, err)
	}
}

func TestMedianNeedsOneSample(t *testing.T) {
	if v, _, err := samples(1).percentile(50); err != nil || v != time.Microsecond {
		t.Fatalf("median of one sample: %v %v", v, err)
	}
	if _, _, err := (&dist{}).percentile(50); err == nil {
		t.Fatal("median of no samples must fail")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{10, 12.5, 11, 30, 9.5}, [3]float64{9.75, 11, 21.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
				break
			}
		}
	}
}

func TestAttributeOverlappingChildren(t *testing.T) {
	us := func(x int) time.Duration { return time.Duration(x) * time.Microsecond }
	root := span{Name: "check", Start: 0, End: us(100)}
	kids := []span{
		{Name: "transport", Start: us(10), End: us(90)},
		{Name: "server", Start: us(20), End: us(80)},
		// Two parallel detector runs overlapping on [50, 60], and a span
		// that outlives the root and is clipped to it.
		{Name: "summary.detect", Start: us(30), End: us(60)},
		{Name: "summary.detect", Start: us(50), End: us(70)},
		{Name: "summary.pairs", Start: us(95), End: us(120)},
	}
	depth := []int{1, 2, 3, 3, 1}
	got := attribute(root, kids, depth)
	want := map[string]time.Duration{
		"unattributed":   us(15),
		"transport":      us(20),
		"server":         us(20),
		"summary.detect": us(40),
		"summary.pairs":  us(5),
	}
	var sum time.Duration
	for l, d := range got {
		sum += d
		if want[l] != d {
			t.Errorf("%s: %v, want %v", l, d, want[l])
		}
	}
	if sum != root.End-root.Start {
		t.Errorf("layers add to %v, root is %v", sum, root.End-root.Start)
	}
}
