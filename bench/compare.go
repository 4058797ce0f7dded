package main

// compare.go is "bench -compare A.json B.json": B against A, metric by
// metric, each end-to-end delta held to the metric's bound.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func (d *document) run(workload string, trace bool) *result {
	for _, r := range d.Runs {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// verdict classifies B's value against A's. worse is the relative change
// in the metric's bad direction. Within the bound is "ok"; beyond it, a
// change no larger than the windows' own spread is "unresolved", and
// otherwise it is "regressed" or "improved".
func verdict(d metricDecl, a, b, spread float64) (worse float64, v string) {
	worse = (b - a) / a
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case math.Abs(worse) <= d.Bound:
		v = "ok"
	case spread >= math.Abs(worse):
		v = "unresolved"
	case worse > 0:
		v = "regressed"
	default:
		v = "improved"
	}
	return worse, v
}

// compareFiles prints the comparison and returns the exit code: 1 when
// an end-to-end metric regressed, a run failed its checks, or a count
// that must repeat exactly did not.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := readDocument(pathA)
	if err == nil {
		var b *document
		if b, err = readDocument(pathB); err == nil {
			return compareDocuments(a, b, w)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareDocuments(a, b *document, w io.Writer) int {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA\tB\tworse by\tbound\tverdict\n")
	code := 0
	for _, wl := range workloads {
		ra, rb := a.run(wl.name, false), b.run(wl.name, false)
		if ra == nil || rb == nil {
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(tw, "%s\t(correctness)\t%d failed\t%d failed\t\t\tregressed\n", wl.name, ra.Failed, rb.Failed)
			code = 1
		}
		spread := math.Max(ra.Spread, rb.Spread)
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			worse, v := verdict(d, ma.Value, mb.Value, spread)
			if exactCounts[d.Name] && a.Env.Seed == b.Env.Seed && ma.Value != mb.Value {
				v = "differs (exact count)"
				code = 1
			}
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.0f%%\t%s\n",
				wl.name, d.Name, ma.Value, ma.Unit, mb.Value, mb.Unit, 100*worse, 100*d.Bound, v)
		}
		fmt.Fprintf(tw, "%s\t(window spread)\t%.1f%%\t%.1f%%\t\t\t\n", wl.name, 100*ra.Spread, 100*rb.Spread)
	}
	// Per-layer metrics carry no bound: deltas only, except the counts
	// that must repeat exactly when the seed is the same.
	for _, wl := range workloads {
		ra, rb := a.run(wl.name, true), b.run(wl.name, true)
		if ra == nil || rb == nil {
			continue
		}
		names := make([]string, 0, len(ra.Metrics))
		for n := range ra.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ma, mb := ra.Metrics[n], rb.Metrics[n]
			v := ""
			if exactCounts[n] && a.Env.Seed == b.Env.Seed && ma.Value != mb.Value {
				v = "differs (exact count)"
				code = 1
			}
			delta := 0.0
			if ma.Value != 0 {
				delta = (mb.Value - ma.Value) / ma.Value
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t\t%s\n", wl.name, n, ma.Value, ma.Unit, mb.Value, mb.Unit, 100*delta, v)
		}
	}
	tw.Flush()
	return code
}
