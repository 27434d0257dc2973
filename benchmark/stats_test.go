package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The reported tail is the highest percentile with ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{{50, 50}, {100, 90}, {199, 90}, {200, 95}, {350, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.samples); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
}

func TestMedianIQR(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8}); got != 4 {
		t.Errorf("iqr = %v, want 4", got)
	}
	if got := geomean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean = %v, want 2", got)
	}
}

// Throughput is the median over blocks, so one slow spell moves one block,
// not the result.
func TestBlockRates(t *testing.T) {
	var ends []time.Duration
	at := time.Duration(0)
	for block := 0; block < 5; block++ {
		step := 10 * time.Millisecond
		if block == 2 {
			step = 100 * time.Millisecond // a slow spell
		}
		for i := 0; i < 10; i++ {
			at += step
			ends = append(ends, at)
		}
	}
	ends = append(ends, at+time.Millisecond) // a trailing partial block
	rates := blockRates(ends, 10)
	if len(rates) != 5 {
		t.Fatalf("got %d blocks, want 5 (the partial one dropped)", len(rates))
	}
	if math.Abs(rates[0]-100) > 1e-9 || math.Abs(rates[2]-10) > 1e-9 {
		t.Errorf("block rates = %v, want 100/s with a 10/s third block", rates)
	}
	if got := median(rates); math.Abs(got-100) > 1e-9 {
		t.Errorf("median block rate = %v, want 100", got)
	}
	// A window too short for one block still has a rate.
	if rates := blockRates(ends[:5], 10); len(rates) != 1 || math.Abs(rates[0]-100) > 1e-9 {
		t.Errorf("rates of half a block = %v, want [100]", rates)
	}
}
