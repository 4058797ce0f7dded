package main

// e2e.go is the end-to-end run: generate a catalog, boot the real icdbd
// binary on it, drive it over wire.Client from closed-loop connections,
// check every reply, kill it, and time its recovery.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icdb/internal/expand"
	"icdb/internal/icdb"
	"icdb/internal/iif"
	"icdb/internal/relstore"
	"icdb/internal/wire"
)

const (
	// connections is the number of closed-loop clients: one per CPU of
	// the 2-core box the benchmark is calibrated on. Synthesis tools
	// wait for each answer, so a closed loop is the honest model.
	connections = 2
	// windows is how many back-to-back measurement windows one run has.
	// Whatever else runs on the machine only ever slows a window down, so
	// the metrics are taken from the faster half of them (see summarize).
	windows = 10
	// checkEvery: one reply in this many is compared row by row with the
	// oracle; every reply has its row count checked.
	checkEvery = 64
	// warm of untimed traffic follows each set-up's boot; settle more
	// follows the last one, on the server the windows then measure: its
	// first seconds under load are visibly slower.
	warm   = 500 * time.Millisecond
	settle = 2 * time.Second
	// hotBoots is how many fresh-process boots a run on the small catalog
	// times, hotRecoveries how many times its server is killed and
	// restarted on the same files after the windows; a boot there takes a
	// twentieth of a second. The large catalog gets bigRecoveries, and
	// boots for its share of the measured time.
	hotBoots      = 12
	hotRecoveries = 9
	bigRecoveries = 5
	// tailOps is the length of each single-connection probe the traced
	// invocation runs for an op kind outside the workload's mix.
	tailOps = 200
	// writeWindow is the window length of the burst of estimates that
	// gives a read-only workload its write latency.
	writeWindow = 200 * time.Millisecond
	// poolSeed draws the read-command pools. It is a constant: the run's
	// seed decides the catalog's attribute values and the order commands
	// are drawn in, not which commands exist, so that the cost of the mix
	// does not move with the seed.
	poolSeed = 1
	// compactAt is write-durable's journal compaction threshold.
	compactAt = 128 << 10
)

// env is what every run of this process shares.
type env struct {
	root string // the checkout being measured
	tmp  string // scratch directory, removed on exit
	sz   sizes
	seed int64
	logf func(format string, args ...any)
}

// site is one generated catalog on disk, ready to be served.
type site struct {
	w         *workload
	dir       string
	bin       string
	dbPath    string
	model     *model
	pools     *pools
	expand    map[int]string
	nSynth    int
	rows      int
	snapBytes int64
}

// expandOutputs expands the design at every size the workload uses on a
// scratch database holding only the builtin library, the same library
// the design's calls resolve against on the server.
func expandOutputs() (map[int]string, error) {
	db, err := icdb.Open(relstore.New())
	if err != nil {
		return nil, err
	}
	ex := expand.New(db)
	out := map[int]string{}
	for n := 2; n <= 16; n++ {
		d, err := iif.Parse(designSource())
		if err != nil {
			return nil, err
		}
		net, err := ex.Expand(d, map[string]int{"size": n})
		if err != nil {
			return nil, err
		}
		if err := net.Validate(); err != nil {
			return nil, err
		}
		out[n] = net.Format()
	}
	return out, nil
}

// prepare builds icdbd and generates w's catalog, design file and read
// pools in a fresh directory.
func (e *env) prepare(w *workload) (*site, error) {
	bin, err := buildServer(e.root, e.tmp)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	n := w.catalogSize(e.sz)
	build := buildRegistered
	if w.big {
		build = buildRaw
	}
	cat, err := build(e.seed, n)
	if err != nil {
		return nil, err
	}
	designs := filepath.Join(dir, "designs")
	if err := os.MkdirAll(designs, 0o755); err != nil {
		return nil, err
	}
	s := &site{w: w, dir: dir, bin: bin, dbPath: filepath.Join(dir, "catalog.snap"),
		model: cat.model, nSynth: n, rows: cat.rows}
	if err := cat.store.SaveSnapshot(s.dbPath); err != nil {
		return nil, err
	}
	fi, err := os.Stat(s.dbPath)
	if err != nil {
		return nil, err
	}
	s.snapBytes = fi.Size()
	if err := os.WriteFile(filepath.Join(designs, designFile), []byte(designSource()), 0o644); err != nil {
		return nil, err
	}
	if s.expand, err = expandOutputs(); err != nil {
		return nil, err
	}
	s.pools = buildPools(w, s.model, poolSeed)
	return s, nil
}

func (s *site) serverArgs() []string {
	args := []string{"-db", s.dbPath, "-designs", filepath.Join(s.dir, "designs")}
	if s.w.journal {
		args = append(args, "-journal", "-fsync", "always", "-compact-at", fmt.Sprint(compactAt))
	}
	return args
}

// runner drives one site's server and keeps the tally of checks.
type runner struct {
	e *env
	s *site

	// mu guards s.model and cache. A write's reply is applied to the
	// model under the write lock before wDone is raised; a read is
	// compared under the read lock, and only when no write was in flight
	// from before it was sent until the comparison — otherwise the
	// expected answer is ambiguous and the reply counts as unchecked.
	mu       sync.RWMutex
	wStarted atomic.Int64
	wDone    atomic.Int64
	// cache holds rendered expectations while the model has never been
	// written to; the first write drops it for good.
	cache map[string][]string

	attempted, failed, unchecked atomic.Int64
	failMu                       sync.Mutex
	fails                        []string
	cacheMu                      sync.Mutex
}

func newRunner(e *env, s *site) *runner {
	return &runner{e: e, s: s, cache: map[string][]string{}}
}

func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.failMu.Lock()
	if len(r.fails) < 10 {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
	r.failMu.Unlock()
}

// do runs one command and checks its reply. The returned latency covers
// only the Exec call. alive is false once the connection is unusable.
func (r *runner) do(c *wire.Client, o *op, full bool) (lat time.Duration, rows int, alive bool) {
	write := o.kind.isWrite()
	collect := full || write || o.rows < 0
	d1 := r.wDone.Load()
	s1 := r.wStarted.Load()
	if write {
		r.wStarted.Add(1)
	}
	var lines []string
	var onRow func(string)
	if collect {
		onRow = func(l string) { lines = append(lines, l) }
	}
	t0 := time.Now()
	rows, err := c.Exec(o.cmd, onRow)
	lat = time.Since(t0)
	return lat, rows, r.check(o, rows, lines, err, collect, s1 == d1, s1)
}

// check is do's untimed half. quiet says no write was in flight when the
// command was sent, with started writes standing at s1.
func (r *runner) check(o *op, rows int, lines []string, err error, collect, quiet bool, s1 int64) (alive bool) {
	r.attempted.Add(1)
	write := o.kind.isWrite()
	if err != nil {
		if write {
			r.wDone.Add(1)
		}
		r.fail("%q: %v", o.cmd, err)
		var re *wire.RemoteError
		return errors.As(err, &re)
	}
	if write {
		r.mu.Lock()
		r.cache = nil
		want := o.expect(r.s.model)
		r.wDone.Add(1)
		r.mu.Unlock()
		if d := replyDiff(o, lines, want); d != "" {
			r.fail("%q: %s", o.cmd, d)
		}
		return true
	}
	if o.rows >= 0 && rows != o.rows {
		r.fail("%q: %d rows, want %d", o.cmd, rows, o.rows)
		return true
	}
	if !collect {
		return true
	}
	r.mu.RLock()
	stable := quiet && r.wStarted.Load() == s1
	var want []string
	if stable {
		want = r.expected(o)
	}
	r.mu.RUnlock()
	if !stable {
		r.unchecked.Add(1)
		return true
	}
	if d := replyDiff(o, lines, want); d != "" {
		r.fail("%q: %s", o.cmd, d)
	}
	return true
}

// expected renders o's expected reply; the caller holds mu for reading.
func (r *runner) expected(o *op) []string {
	if r.cache == nil {
		return o.expect(r.s.model)
	}
	r.cacheMu.Lock()
	want, ok := r.cache[o.cmd]
	r.cacheMu.Unlock()
	if !ok {
		want = o.expect(r.s.model)
		r.cacheMu.Lock()
		r.cache[o.cmd] = want
		r.cacheMu.Unlock()
	}
	return want
}

// bootTimes are measured from just before exec of the server binary.
type bootTimes struct {
	listen time.Duration // "listening" log line
	ttfq   time.Duration // first find reply in
	ttfull time.Duration // a command on every large relation answered
}

// touchAll is the command sequence that reads every large relation:
// implementations and estimators (find at width), explorations
// (frontier, listing) and generators.
func (r *runner) touchAll() []op {
	m := r.s.model
	return []op{
		r.s.pools.byKind[kFindWidth][0],
		{kind: kPareto, cmd: "find pareto limit 5", rows: -1, expect: func(m *model) []string { return m.pareto(false, 5) }},
		{kind: kShowImpls, cmd: "show generators", rows: len(builtinGens)},
		{kind: kShowImpls, cmd: "show explorations", rows: len(m.points), expect: func(m *model) []string { return m.showExplorations() }},
	}
}

// bootDepth says how far a boot is driven.
type bootDepth int

const (
	bootFirst bootDepth = iota // to the first find reply
	bootTouch                  // and through touchAll
	bootDeep                   // and the large listings compared row by row
)

// boot starts a fresh server process on the site and times it to its
// first find reply and, from bootTouch on, through touchAll. Replies are
// checked after the clock has stopped.
func (r *runner) boot(depth bootDepth, extra ...string) (*server, bootTimes, error) {
	var bt bootTimes
	srv, err := startServer(r.s.bin, append(r.s.serverArgs(), extra...)...)
	if err != nil {
		return nil, bt, err
	}
	bt.listen = srv.listen
	c, err := wire.Dial(srv.addr)
	if err != nil {
		srv.kill()
		return nil, bt, err
	}
	defer c.Close()
	type reply struct {
		o     op
		rows  int
		lines []string
		err   error
	}
	seq := []op{r.s.pools.byKind[kFindTopK][0]}
	if depth >= bootTouch {
		seq = append(seq, r.touchAll()...)
	}
	replies := make([]reply, len(seq))
	for i, o := range seq {
		rp := &replies[i]
		rp.o = o
		rp.rows, rp.err = c.Exec(o.cmd, func(l string) { rp.lines = append(rp.lines, l) })
		if i == 0 {
			bt.ttfq = time.Since(srv.start)
		}
		if rp.err != nil {
			break
		}
	}
	bt.ttfull = time.Since(srv.start)
	for i := range replies {
		rp := &replies[i]
		full := rp.o.expect != nil && (depth == bootDeep || rp.rows < 100)
		if !r.check(&rp.o, rp.rows, rp.lines, rp.err, full, true, r.wStarted.Load()) || rp.err != nil {
			srv.kill()
			return nil, bt, fmt.Errorf("bench: boot command %q failed: %v", rp.o.cmd, rp.err)
		}
	}
	return srv, bt, nil
}

// sample is one completed command of a driven phase.
type sample struct {
	end  time.Duration // completion, from the phase's start
	lat  time.Duration
	kind opKind
	rows int
}

// drive runs next's commands on c, one after the reply to the last, until
// the deadline or until count commands are done (count 0 means no cap).
func (r *runner) drive(c *wire.Client, t0 time.Time, until time.Duration, count int, next func() op) []sample {
	var out []sample
	for i := 0; (count == 0 || i < count) && time.Since(t0) < until; i++ {
		o := next()
		lat, rows, alive := r.do(c, &o, i%checkEvery == 0)
		out = append(out, sample{end: time.Since(t0), lat: lat, kind: o.kind, rows: rows})
		if !alive {
			break
		}
	}
	return out
}

// steady is what one driven phase measured.
type steady struct {
	samples []sample // every connection's, unordered
	window  time.Duration
	n       int             // windows
	cpu     []time.Duration // server CPU time at each window boundary (n+1)
}

// driveAll runs one closed-loop connection per command source for n
// windows.
func (r *runner) driveAll(srv *server, clients []*wire.Client, next []func() op, window time.Duration, n int) (*steady, error) {
	st := &steady{window: window, n: n, cpu: make([]time.Duration, n+1)}
	var err error
	if st.cpu[0], err = srv.cpu(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[i] = r.drive(clients[i], t0, time.Duration(n)*window, 0, next[i])
		}()
	}
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * window)))
		if st.cpu[i], err = srv.cpu(); err != nil {
			break
		}
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, p := range per {
		st.samples = append(st.samples, p...)
	}
	return st, nil
}

// e2eOut is everything an end-to-end run measured.
type e2eOut struct {
	metrics map[string]metric
	kindP50 [numKinds]metric // client-observed p50 per op kind
	spread  float64          // (max-min)/median of window ops/s
	boots   []bootTimes
	eager   bootTimes // one extra boot with -open eager (probe runs only)
}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// e2eOpts shapes an end-to-end run.
type e2eOpts struct {
	seconds float64
	setups  int  // how many times set-up is repeated (setup_s is their median)
	probe   bool // traced invocation: probe every op kind outside the mix
	// site and runner, when set, replace the first set-up's prepare: the
	// traced invocation has generated its catalog already.
	site   *site
	runner *runner
}

func (e *env) runE2E(w *workload, opt e2eOpts) (*e2eOut, *runner, error) {
	var r *runner
	var srv *server
	var setups []float64
	out := &e2eOut{metrics: map[string]metric{}}
	streams := make([]*stream, connections)
	next := make([]func() op, connections)
	clients := make([]*wire.Client, connections)
	closeClients := func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}
	defer closeClients()
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()

	// Set-up, repeated: the last repetition's server is the one measured.
	for i := 0; i < opt.setups; i++ {
		if srv != nil {
			closeClients()
			srv.kill()
			os.RemoveAll(r.s.dir)
		}
		t0 := time.Now()
		var err error
		s := opt.site
		r = opt.runner
		if s == nil {
			if s, err = e.prepare(w); err != nil {
				return nil, nil, err
			}
			r = newRunner(e, s)
		}
		var bt bootTimes
		depth := bootTouch
		if i == 0 {
			depth = bootDeep
		}
		if srv, bt, err = r.boot(depth); err != nil {
			return nil, r, err
		}
		out.boots = append(out.boots, bt)
		for c := range clients {
			if clients[c], err = wire.Dial(srv.addr); err != nil {
				return nil, r, err
			}
			streams[c] = newStream(s, e.seed, c, connections)
			next[c] = streams[c].next
		}
		if _, err := r.driveAll(srv, clients, next, warm, 1); err != nil {
			return nil, r, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if _, err := r.driveAll(srv, clients, next, settle, 1); err != nil {
		return nil, r, err
	}
	e.logf("%s: set-up x%d median %.2fs, catalog %d rows %d bytes", w.name, len(setups), median(setups), r.s.rows, r.s.snapBytes)

	// Timed fresh-process boots beside the measured server.
	bootBudget := secs(w.bootShare * opt.seconds)
	minBoots := hotBoots
	if w.big {
		minBoots = opt.setups + 3
	}
	if opt.probe {
		minBoots, bootBudget = opt.setups+1, 0
	}
	for t0 := time.Now(); len(out.boots) < minBoots || time.Since(t0) < bootBudget; {
		b, bt, err := r.boot(bootTouch)
		if err != nil {
			return nil, r, err
		}
		b.kill()
		out.boots = append(out.boots, bt)
	}

	// The measurement windows. The harness collects its own garbage
	// first, so that its collector does not run beside the first of them.
	runtime.GC()
	window := secs((1 - w.bootShare) * opt.seconds / windows)
	st, err := r.driveAll(srv, clients, next, window, windows)
	if err != nil {
		return nil, r, err
	}
	rss, err := srv.rssPeakMB()
	if err != nil {
		return nil, r, err
	}
	r.summarize(out, st)
	out.metrics["server_rss_peak_mb"] = metric{rss, "MB", 1}

	var ttfq, ttfull []float64
	for _, b := range out.boots {
		ttfq = append(ttfq, b.ttfq.Seconds())
		ttfull = append(ttfull, b.ttfull.Seconds())
	}
	out.metrics["ttfq_s"] = metric{bestMean(ttfq), "s", len(ttfq)}
	out.metrics["ttfull_s"] = metric{bestMean(ttfull), "s", len(ttfull)}
	out.metrics["setup_s"] = metric{median(setups), "s", len(setups)}
	out.metrics["snapshot_bytes_per_row"] = metric{float64(r.s.snapBytes) / float64(r.s.rows), "B", r.s.rows}

	// Every acknowledged write must be there now, and again after the
	// server has been killed and has recovered from the same files. A
	// process kill leaves the OS cache intact, so this proves the journal
	// is written before the reply, not that the device has the bytes.
	closeClients()
	if err := r.verifyCounts(srv); err != nil {
		return nil, r, err
	}
	var recov []float64
	recoveries := hotRecoveries
	if w.big {
		recoveries = bigRecoveries
	}
	for i := 0; i < recoveries; i++ {
		srv.kill()
		restarted, bt, err := r.boot(bootFirst)
		if err != nil {
			return nil, r, err
		}
		srv = restarted
		recov = append(recov, bt.ttfq.Seconds())
		if i == 0 {
			if err := r.verifyCounts(srv); err != nil {
				return nil, r, err
			}
		}
		if opt.probe {
			break
		}
	}
	out.metrics["recovery_s"] = metric{bestMean(recov), "s", len(recov)}

	if opt.probe {
		// One extra fresh-process boot with -open eager, while the files
		// still hold exactly what the model does.
		eager, bt, err := r.boot(bootFirst, "-open", "eager")
		if err != nil {
			return nil, r, err
		}
		eager.kill()
		out.eager = bt
	}

	// The traced invocation probes, on one connection, every op kind the
	// mix does not hold: the read kinds now, while the model's row counts
	// still stand, the write kinds after the burst below.
	inMix := map[opKind]bool{}
	for _, sh := range w.mix {
		inMix[sh.kind] = true
	}
	tail := newStream(r.s, e.seed+2, 0, 1)
	probe := func(from, to opKind) error {
		if !opt.probe {
			return nil
		}
		c, err := wire.Dial(srv.addr)
		if err != nil {
			return err
		}
		defer c.Close()
		for k := from; k < to; k++ {
			if inMix[k] {
				continue
			}
			n := tailOps
			if k == kShowImpls || k == kPareto {
				n /= 10 // whole-relation listings: each is long, a few suffice
			}
			if w.big {
				n /= 5
			}
			var lats []float64
			for _, s := range r.drive(c, time.Now(), time.Minute, n, func() op { return tail.make(k) }) {
				lats = append(lats, micros(s.lat))
			}
			out.kindP50[k] = metric{percentile(lats, 50), "us", len(lats)}
		}
		return nil
	}
	if err := probe(0, kEstimate); err != nil {
		return nil, r, err
	}

	// A workload whose mix has no writes takes its write latency from a
	// short burst of never-repeated estimates on both connections (the
	// writes are not journaled there: the difference from write-durable
	// is what the journal costs).
	if _, ok := out.metrics["write_latency_p50_us"]; !ok {
		for c := range clients {
			if clients[c], err = wire.Dial(srv.addr); err != nil {
				return nil, r, err
			}
			streams[c] = newStream(r.s, e.seed+1, c, connections)
			next[c] = streams[c].estimate
		}
		// The recovered server has answered one find: hydrate the rest
		// and let the write path warm before the timed burst.
		for _, o := range r.touchAll() {
			if _, _, alive := r.do(clients[0], &o, false); !alive {
				return nil, r, fmt.Errorf("bench: connection lost during %q", o.cmd)
			}
		}
		if _, err := r.driveAll(srv, clients, next, warm, 1); err != nil {
			return nil, r, err
		}
		burst, err := r.driveAll(srv, clients, next, writeWindow, windows)
		if err != nil {
			return nil, r, err
		}
		b := &e2eOut{metrics: map[string]metric{}}
		r.summarize(b, burst)
		out.metrics["write_latency_p50_us"] = b.metrics["write_latency_p50_us"]
		closeClients()
	}
	for _, st := range streams {
		tail.estBase = max(tail.estBase, st.estBase+st.conn+st.conns*st.nEst) // clear of every index used
	}
	if err := probe(kEstimate, numKinds); err != nil {
		return nil, r, err
	}
	if err := r.verifyCounts(srv); err != nil {
		return nil, r, err
	}
	return out, r, nil
}

// verifyCounts asks the server how many implementations and design
// points it holds and compares with the model.
func (r *runner) verifyCounts(srv *server) error {
	c, err := wire.Dial(srv.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	r.mu.RLock()
	ops := []op{
		{kind: kShowImpls, cmd: "show impls", rows: len(r.s.model.impls)},
		{kind: kShowImpls, cmd: "show explorations", rows: len(r.s.model.points)},
	}
	r.mu.RUnlock()
	for i := range ops {
		if _, _, alive := r.do(c, &ops[i], false); !alive {
			return fmt.Errorf("bench: connection lost during %q", ops[i].cmd)
		}
	}
	return nil
}

// summarize turns the windows' samples into the throughput and latency
// metrics. For each metric the windows are ranked by that metric, the
// worst quarter is dropped, and the figure is computed over what is left
// pooled. Other load on the machine only ever makes a window slower, so
// up to a quarter of the windows can be disturbed without moving the
// figure, while a change to the system moves every window and the figure
// with them.
func (r *runner) summarize(out *e2eOut, st *steady) {
	type win struct {
		ops, rows    int
		lats, writes []float64
		cpu          float64 // µs of server CPU
	}
	wins := make([]*win, st.n)
	for i := range wins {
		wins[i] = &win{cpu: micros(st.cpu[i+1] - st.cpu[i])}
	}
	var byKind [numKinds][]float64
	for _, s := range st.samples {
		byKind[s.kind] = append(byKind[s.kind], micros(s.lat))
		i := int(s.end / st.window)
		if i >= st.n {
			continue // finished after the last window closed
		}
		w := wins[i]
		w.ops++
		w.rows += s.rows
		w.lats = append(w.lats, micros(s.lat))
		if s.kind == kEstimate || s.kind == kGenerate || s.kind == kExplore {
			w.writes = append(w.writes, micros(s.lat))
		}
	}
	// best returns the windows holding any of the metric's samples, minus
	// the quarter that scores worst; bad is the score, larger is worse.
	best := func(has func(*win) bool, bad func(*win) float64) []*win {
		var ws []*win
		for _, w := range wins {
			if has(w) {
				ws = append(ws, w)
			}
		}
		sort.SliceStable(ws, func(i, j int) bool { return bad(ws[i]) < bad(ws[j]) })
		return ws[:len(ws)-len(ws)/4]
	}
	any := func(w *win) bool { return w.ops > 0 }
	pool := func(ws []*win, of func(*win) []float64) (all []float64) {
		for _, w := range ws {
			all = append(all, of(w)...)
		}
		return all
	}
	lats := func(w *win) []float64 { return w.lats }
	writes := func(w *win) []float64 { return w.writes }
	sum := func(ws []*win, of func(*win) float64) (t float64) {
		for _, w := range ws {
			t += of(w)
		}
		return t
	}
	nOps := func(w *win) float64 { return float64(w.ops) }
	nRows := func(w *win) float64 { return float64(w.rows) }

	ws := best(any, func(w *win) float64 { return -nOps(w) })
	out.metrics["ops_per_s"] = metric{sum(ws, nOps) / (float64(len(ws)) * st.window.Seconds()), "1/s", int(sum(ws, nOps))}
	ws = best(any, func(w *win) float64 { return -nRows(w) })
	out.metrics["rows_per_s"] = metric{sum(ws, nRows) / (float64(len(ws)) * st.window.Seconds()), "1/s", int(sum(ws, nOps))}
	all := pool(best(any, func(w *win) float64 { return percentile(w.lats, 50) }), lats)
	out.metrics["latency_p50_us"] = metric{percentile(all, 50), "us", len(all)}
	all = pool(best(any, func(w *win) float64 { return percentile(w.lats, 99) }), lats)
	out.metrics["latency_p99_us"] = metric{percentile(all, 99), "us", len(all)}
	ws = best(any, func(w *win) float64 { return w.cpu / nOps(w) })
	out.metrics["server_cpu_us_per_op"] = metric{sum(ws, func(w *win) float64 { return w.cpu }) / sum(ws, nOps), "us", int(sum(ws, nOps))}
	if all = pool(best(func(w *win) bool { return len(w.writes) > 0 }, func(w *win) float64 { return percentile(w.writes, 50) }), writes); len(all) > 0 {
		out.metrics["write_latency_p50_us"] = metric{percentile(all, 50), "us", len(all)}
	}

	var ops, p50 []float64
	for _, w := range wins {
		ops = append(ops, nOps(w)/st.window.Seconds())
		p50 = append(p50, percentile(w.lats, 50))
	}
	r.e.logf("%s: window ops/s %.0f, window p50 us %.0f", r.s.w.name, ops, p50)
	out.spread = (percentile(ops, 100) - percentile(ops, 0)) / median(ops)
	for k := range byKind {
		if len(byKind[k]) > 0 {
			out.kindP50[k] = metric{percentile(byKind[k], 50), "us", len(byKind[k])}
		}
	}
}
