package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by nearest
// rank; xs is sorted in place. It is NaN on an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// bestMean is the mean of xs without its largest quarter: the one-sided
// trim used for timings that other load can only lengthen.
func bestMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[:len(s)-len(s)/4]
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

// secs turns a number of seconds into a Duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// splitLines splits command output into the rows the server frames: one
// per newline-terminated line, empty lines included.
func splitLines(s string) []string {
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}
