package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"icdb/internal/wire"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// TestManifest holds BENCHMARK.json to the tables in metrics.go and
// workload.go. BENCH_WRITE_MANIFEST=1 rewrites the file from them.
func TestManifest(t *testing.T) {
	var want manifest
	want.Command = []string{"bash", "bench/run.sh"}
	want.Paths = []string{"bench"}
	want.RunSeconds = 10
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	want.EndToEnd, want.PerLayer = endToEnd, perLayer
	for _, w := range want.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("BENCH_WRITE_MANIFEST") != "" {
		data, err := json.MarshalIndent(&want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(&got)
	b, _ := json.Marshal(&want)
	if !bytes.Equal(a, b) {
		t.Errorf("BENCHMARK.json differs from the declared tables (BENCH_WRITE_MANIFEST=1 go test -run Manifest rewrites it)\n got %s\nwant %s", a, b)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric declaration %+v", d)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
}

func testEnv(t *testing.T) *env {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp, err := os.MkdirTemp(build, "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		killAllServers()
		os.RemoveAll(tmp)
	})
	return &env{root: root, tmp: tmp, sz: sizes{small: 2000, large: 4000}, seed: 1, logf: t.Logf}
}

// TestSmoke runs all four workloads, traced and untraced, on tiny
// catalogs and holds what they print to what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots icdbd sixteen times")
	}
	e := testEnv(t)
	decl := map[bool]map[string]string{false: {}, true: {}}
	for _, d := range endToEnd {
		decl[false][d.Name] = d.Unit
	}
	for _, d := range perLayer {
		decl[true][d.Name] = d.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := e.runOne(w, 1.5, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d failed %d: %v", w.name, traced, res.Attempted, res.Failed, res.Failures)
			}
			for name, unit := range decl[traced] {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: declared metric %s not printed", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: %s printed in %q, declared in %q", w.name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s is %v", w.name, name, m.Value)
				case m.Samples < 1:
					t.Errorf("%s: %s has no samples", w.name, name)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, name, m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := decl[traced][name]; !ok {
					t.Errorf("%s traced=%v: printed metric %s is not declared", w.name, traced, name)
				}
			}
			line, err := json.Marshal(res.contractLine())
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			json.Unmarshal(line, &keys)
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line has keys %v", keys)
			}
		}
		spans, err := os.ReadFile(filepath.Join(e.root, "bench", "out", "trace-"+w.name+".jsonl"))
		if err != nil || !bytes.Contains(spans, []byte(`"name":"wire.roundtrip"`)) || !bytes.Contains(spans, []byte(`"name":"icdb.call"`)) {
			t.Errorf("%s: span file missing or without the expected spans: %v", w.name, err)
		}
	}
}

func streamText(w *workload, c *catalog, seed int64, conn, n int) string {
	s := &site{w: w, model: c.model, nSynth: len(c.model.impls) - builtinCount, expand: map[int]string{}}
	for i := 2; i <= 16; i++ {
		s.expand[i] = "x\n"
	}
	s.pools = buildPools(w, c.model, seed)
	st := newStream(s, seed, conn, connections)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(st.next().cmd)
		b.WriteByte('\n')
	}
	return b.String()
}

func snapshotSum(t *testing.T, c *catalog) [32]byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.snap")
	if err := c.store.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

// TestGeneratorDeterminism: the seed fixes the catalog bytes and every
// connection's command stream; another seed changes both.
func TestGeneratorDeterminism(t *testing.T) {
	for _, build := range []func(int64, int) (*catalog, error){buildRegistered, buildRaw} {
		var sums [3][32]byte
		var cats [3]*catalog
		for i, seed := range []int64{7, 7, 8} {
			c, err := build(seed, 500)
			if err != nil {
				t.Fatal(err)
			}
			cats[i], sums[i] = c, snapshotSum(t, c)
		}
		if sums[0] != sums[1] {
			t.Error("same seed, different catalog snapshot bytes")
		}
		if sums[0] == sums[2] {
			t.Error("different seed, same catalog snapshot bytes")
		}
		for _, w := range workloads {
			for conn := 0; conn < connections; conn++ {
				a, b, c := streamText(w, cats[0], 7, conn, 400), streamText(w, cats[1], 7, conn, 400), streamText(w, cats[2], 8, conn, 400)
				if a != b {
					t.Errorf("%s conn %d: same seed, different command stream", w.name, conn)
				}
				if a == c {
					t.Errorf("%s conn %d: different seed, same command stream", w.name, conn)
				}
			}
		}
	}
}

// TestFrameScanner feeds a frame stream in awkward pieces.
func TestFrameScanner(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("ICDBWIRE\x02\x00\x00\x00")
	wire.WriteFrame(&buf, wire.FrameHello, nil)
	wire.WriteFrame(&buf, wire.FrameCommand, []byte("find component"))
	wire.WriteFrame(&buf, wire.FrameCommand, bytes.Repeat([]byte("x"), 5000))
	all := buf.Bytes()
	for _, chunk := range []int{1, 3, 7, 4096, len(all)} {
		var got []wire.FrameType
		s := frameScanner{skip: len(wire.Magic) + 4, onFrame: func(ft wire.FrameType) { got = append(got, ft) }}
		for off := 0; off < len(all); off += chunk {
			s.feed(all[off:min(off+chunk, len(all))])
		}
		if len(got) != 3 || got[0] != wire.FrameHello || got[1] != wire.FrameCommand || got[2] != wire.FrameCommand {
			t.Errorf("chunk %d: frames %v", chunk, got)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{Name: "latency_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d            metricDecl
		a, b, spread float64
		want         string
	}{
		{lower, 100, 105, 0.02, "ok"},
		{lower, 100, 125, 0.02, "regressed"},
		{lower, 100, 125, 0.30, "unresolved"},
		{lower, 100, 70, 0.02, "improved"},
		{higher, 100, 70, 0.02, "regressed"},
		{higher, 100, 130, 0.02, "improved"},
	} {
		if _, got := verdict(c.d, c.a, c.b, c.spread); got != c.want {
			t.Errorf("%s %v→%v spread %v: %s, want %s", c.d.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
	doc := func(p50, bytesPerRow float64) *document {
		m := map[string]metric{}
		for _, d := range endToEnd {
			m[d.Name] = metric{Value: 100, Unit: d.Unit, Samples: 1}
		}
		m["latency_p50_us"] = metric{Value: p50, Unit: "us", Samples: 1}
		m["snapshot_bytes_per_row"] = metric{Value: bytesPerRow, Unit: "B", Samples: 1}
		return &document{Env: &envInfo{Seed: 1}, Runs: []*result{{Workload: "find-hot", Correct: true, Metrics: m}}}
	}
	var out bytes.Buffer
	if code := compareDocuments(doc(100, 97), doc(104, 97), &out); code != 0 {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}
	if code := compareDocuments(doc(100, 97), doc(150, 97), &out); code != 1 {
		t.Errorf("regression: exit %d", code)
	}
	if code := compareDocuments(doc(100, 97), doc(100, 97.001), &out); code != 1 {
		t.Errorf("exact count moved: exit %d", code)
	}
}
