// Command bench is the repository's benchmark: a closed-loop load
// generator that builds cmd/icdbd, runs the real binary as a child
// process, drives four workloads over the wire protocol while checking
// every reply, and, in a separate traced mode, replays the same command
// streams in-process at successively deeper entry points to attribute
// time to layers. See README.md beside this file.
//
// Usage (from the checkout's root):
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh -seed N [-out FILE]      every workload, both modes
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "run one workload and print the one-line result; empty runs all, traced and untraced")
	seed := fs.Int64("seed", 1, "seed of the catalog attributes and command streams")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of the traced run")
	outPath := fs.String("out", "", "also write the full JSON document (env, metrics with sample counts) here")
	compare := fs.Bool("compare", false, "compare two documents written by -out: bench -compare A.json B.json")
	fs.Parse(os.Args[1:])

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	e := &env{root: root, tmp: tmp, sz: fullSizes, seed: *seed,
		logf: func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }}
	cleanup := func() {
		killAllServers()
		os.RemoveAll(tmp)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	doc := &document{Env: captureEnv(root, *seed, *seconds)}
	var todo []*workload
	traces := []bool{*trace == 1}
	if *name == "" {
		todo, traces = workloads, []bool{false, true}
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	for _, w := range todo {
		for _, tr := range traces {
			res, err := e.runOne(w, *seconds, tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printTable(os.Stderr, res)
			doc.Runs = append(doc.Runs, res)
		}
	}
	doc.Env.finish()
	if *outPath != "" {
		if err := writeJSON(*outPath, doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *name == "" {
		json.NewEncoder(os.Stdout).Encode(doc)
	} else {
		json.NewEncoder(os.Stdout).Encode(doc.Runs[0].contractLine())
	}
	return doc.exitCode()
}

// exitCode is 1 when any run had a failed, wrong or lost reply.
func (d *document) exitCode() int {
	for _, r := range d.Runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// result is one run of one workload in one mode.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Unchecked int64             `json:"unchecked"`
	Spread    float64           `json:"window_spread_frac"`
	Metrics   map[string]metric `json:"metrics"`
	Failures  []string          `json:"failures,omitempty"`
}

// contractLine is the last line of standard output in single-workload
// mode.
func (r *result) contractLine() any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for k, m := range r.Metrics {
		ms[k] = mv{m.Value, m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms}
}

func (e *env) runOne(w *workload, seconds float64, trace bool) (*result, error) {
	res := &result{Workload: w.name, Trace: trace}
	var r *runner
	var err error
	if trace {
		res.Metrics, r, err = e.runTrace(w, seconds)
		res.Spread = res.Metrics["noise.window_spread_frac"].Value
	} else {
		setups := 3
		if w.big {
			setups = 2
		}
		var out *e2eOut
		out, r, err = e.runE2E(w, e2eOpts{seconds: seconds, setups: setups})
		if out != nil {
			res.Metrics, res.Spread = out.metrics, out.spread
		}
	}
	if r != nil {
		res.tally(r)
	}
	if err != nil {
		for _, f := range res.Failures {
			e.logf("  failed: %s", f)
		}
		return nil, err
	}
	return res, nil
}

// tally copies the runner's check counts into the result.
func (res *result) tally(r *runner) {
	res.Attempted, res.Failed, res.Unchecked = r.attempted.Load(), r.failed.Load(), r.unchecked.Load()
	res.Failures = r.fails
	res.Correct = res.Failed == 0
}

func printTable(w *os.File, r *result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n%s (%s): attempted %d, failed %d, unchecked %d, window spread %.1f%%\n",
		r.Workload, mode, r.Attempted, r.Failed, r.Unchecked, 100*r.Spread)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(w, "  %-44s %14.4f %-6s n=%d\n", k, m.Value, m.Unit, m.Samples)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
