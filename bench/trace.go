package main

// trace.go is the traced run. The same seeded command stream is replayed
// in-process, on one connection and for a fixed number of commands, at
// successively deeper public entry points ("peeling"):
//
//	pass wire   wire.Client.Exec against an in-process wire.Server whose
//	            listener stamps "Command frame read" and "Done|Error
//	            frame written" and counts frames and bytes
//	pass plain  the same without the stamping, for the tracing overhead
//	pass cql    cql.Env.Exec into a counting writer, plus standalone
//	            cql.Lex and cql.Parse
//	pass icdb   cql.CompileFind + FindQuery.Run with a no-op visitor, or
//	            the direct icdb.DB call of the command's kind
//
// Every pass opens its own fresh copy of the catalog through
// relstore.OpenDurable with a timing relstore.FS, so each write is
// effective in each pass and the store is in the same state at the same
// command index. Spans are kept in memory and written out at the end. No
// file outside this directory is touched: what happens inside icdb.call
// (relstore reads, above all) cannot be split from here.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"icdb/internal/cql"
	"icdb/internal/eqn"
	"icdb/internal/expand"
	"icdb/internal/icdb"
	"icdb/internal/iif"
	"icdb/internal/relstore"
	"icdb/internal/wire"
)

// spanParent is the static span tree.
var spanParent = map[string]string{
	"wire.roundtrip":         "",
	"wire.server":            "wire.roundtrip",
	"cql.exec":               "wire.server",
	"cql.parse":              "cql.exec",
	"cql.compile":            "cql.exec",
	"icdb.call":              "cql.exec",
	"iif.parse":              "cql.exec",
	"expand.expand":          "cql.exec",
	"eqn.format":             "cql.exec",
	"relstore.journal.write": "icdb.call",
	"relstore.journal.sync":  "icdb.call",
}

type span struct {
	Cmd      int    `json:"cmd_id"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Kind     string `json:"op_kind"`
}

// tracer collects spans; times are nanoseconds since its epoch.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func (t *tracer) add(cmd int, name, kind string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{cmd, name, spanParent[name], start.Sub(t.epoch).Nanoseconds(),
		end.Sub(t.epoch).Nanoseconds(), t.workload, kind})
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- the relstore.FS seam ----

// ioCount is calls, bytes and time spent in one class of file calls.
type ioCount struct {
	writes, syncs, bytes int64
	writeNs, syncNs      int64
}

// traceFS is the real filesystem with every Write and Sync timed.
// Files opened for append are the journal; files created are snapshot
// and journal rewrites, which only compaction (and first creation) does.
type traceFS struct {
	mu      sync.Mutex
	journal ioCount
	rewrite ioCount
	// cmd is the command the replaying pass is executing, -1 outside
	// one; journal calls made while it is set become spans.
	cmd   atomic.Int64
	kinds []string // op kind of each command index
	t     *tracer
}

func (fs *traceFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }
func (fs *traceFS) Rename(o, n string) error             { return os.Rename(o, n) }
func (fs *traceFS) Remove(path string) error             { return os.Remove(path) }

func (fs *traceFS) Create(path string) (relstore.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &traceFile{f: f, fs: fs, c: &fs.rewrite}, nil
}

func (fs *traceFS) OpenAppend(path string) (relstore.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &traceFile{f: f, fs: fs, c: &fs.journal, spans: true}, nil
}

func (fs *traceFS) snapshot() (journal, rewrite ioCount) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.journal, fs.rewrite
}

type traceFile struct {
	f     *os.File
	fs    *traceFS
	c     *ioCount
	spans bool
}

func (f *traceFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.f.Write(p)
	t1 := time.Now()
	f.fs.mu.Lock()
	f.c.writes++
	f.c.bytes += int64(n)
	f.c.writeNs += t1.Sub(t0).Nanoseconds()
	f.fs.mu.Unlock()
	if cmd := f.fs.cmd.Load(); f.spans && cmd >= 0 && f.fs.t != nil {
		f.fs.t.add(int(cmd), "relstore.journal.write", f.fs.kinds[cmd], t0, t1)
	}
	return n, err
}

func (f *traceFile) Sync() error {
	t0 := time.Now()
	err := f.f.Sync()
	t1 := time.Now()
	f.fs.mu.Lock()
	f.c.syncs++
	f.c.syncNs += t1.Sub(t0).Nanoseconds()
	f.fs.mu.Unlock()
	if cmd := f.fs.cmd.Load(); f.spans && cmd >= 0 && f.fs.t != nil {
		f.fs.t.add(int(cmd), "relstore.journal.sync", f.fs.kinds[cmd], t0, t1)
	}
	return err
}

func (f *traceFile) Close() error { return f.f.Close() }

// ---- the net.Listener seam ----

// frameScanner follows a wire byte stream frame by frame.
type frameScanner struct {
	skip    int // preamble bytes still to pass over
	hdr     [5]byte
	hdrN    int
	remain  int
	onFrame func(t wire.FrameType)
}

func (s *frameScanner) feed(b []byte) {
	for len(b) > 0 {
		if s.skip > 0 {
			n := min(s.skip, len(b))
			s.skip -= n
			b = b[n:]
			continue
		}
		if s.hdrN < len(s.hdr) {
			n := copy(s.hdr[s.hdrN:], b)
			s.hdrN += n
			b = b[n:]
			if s.hdrN < len(s.hdr) {
				return
			}
			s.remain = int(uint32(s.hdr[0]) | uint32(s.hdr[1])<<8 | uint32(s.hdr[2])<<16 | uint32(s.hdr[3])<<24)
		}
		n := min(s.remain, len(b))
		s.remain -= n
		b = b[n:]
		if s.remain == 0 {
			s.onFrame(wire.FrameType(s.hdr[4]))
			s.hdrN = 0
		}
	}
}

// wireStamps is what the stamping listener saw on the pass's connection.
type wireStamps struct {
	mu           sync.Mutex
	cmdRead      []time.Time // a Command frame fully read by the server
	replyWritten []time.Time // that command's Done or Error frame written
	frames       int64
	bytes        int64
}

type stampListener struct {
	net.Listener
	st *wireStamps
}

func (l *stampListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := &stampConn{Conn: c, st: l.st}
	sc.rd = frameScanner{skip: len(wire.Magic) + 4, onFrame: func(t wire.FrameType) {
		now := time.Now()
		l.st.mu.Lock()
		l.st.frames++
		if t == wire.FrameCommand {
			l.st.cmdRead = append(l.st.cmdRead, now)
		}
		l.st.mu.Unlock()
	}}
	sc.wr = frameScanner{onFrame: func(t wire.FrameType) {
		now := time.Now()
		l.st.mu.Lock()
		l.st.frames++
		// The handshake's own Done precedes any command.
		if (t == wire.FrameDone || t == wire.FrameError) && len(l.st.replyWritten) < len(l.st.cmdRead) {
			l.st.replyWritten = append(l.st.replyWritten, now)
		}
		l.st.mu.Unlock()
	}}
	return sc, nil
}

type stampConn struct {
	net.Conn
	st     *wireStamps
	rd, wr frameScanner
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		atomic.AddInt64(&c.st.bytes, int64(n))
		c.rd.feed(p[:n])
	}
	return n, err
}

func (c *stampConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		atomic.AddInt64(&c.st.bytes, int64(n))
		c.wr.feed(p[:n])
	}
	return n, err
}

// ---- the passes ----

// passStore is one pass's own copy of the catalog, opened the way icdbd
// -journal opens it.
type passStore struct {
	dir string
	dur *relstore.Durable
	db  *icdb.DB
	fs  *traceFS
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (tr *traceRun) openCopy(t *tracer) (*passStore, error) {
	e, s := tr.e, tr.s
	dir, err := os.MkdirTemp(e.tmp, "pass-")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "catalog.snap")
	if err := copyFile(path, s.dbPath); err != nil {
		return nil, err
	}
	ps := &passStore{dir: dir, fs: &traceFS{t: t, kinds: tr.kinds}}
	ps.fs.cmd.Store(-1)
	ps.dur, err = relstore.OpenDurable(path, relstore.DurableOptions{
		Fsync: relstore.FsyncAlways, CompactAt: compactAt, Open: relstore.OpenLazy, FS: ps.fs})
	if err != nil {
		return nil, err
	}
	if ps.db, err = icdb.Open(ps.dur.Store); err != nil {
		ps.dur.Close()
		return nil, err
	}
	return ps, nil
}

func (ps *passStore) close() {
	ps.dur.Close()
	os.RemoveAll(ps.dir)
}

// perCmd is one pass's per-command measurements; a zero duration means
// the span does not apply to the command.
type perCmd struct {
	roundtrip, server time.Duration // pass wire (roundtrip also pass plain)
	lex, parse, exec  time.Duration // pass cql
	compile, call     time.Duration // pass icdb
	iifParse, expandD time.Duration
	format            time.Duration
	jWrite, jSync     time.Duration // journal time inside the icdb pass's command
	rows              [3]int        // wire, cql, icdb
	outBytes          int
}

// lineCounter is the cql pass's discard writer: it counts lines and
// bytes and remembers line lengths for the frame micro-benchmark.
type lineCounter struct {
	lines, bytes int
	lens         []int
	cur          int
}

func (lc *lineCounter) Write(p []byte) (int, error) {
	lc.bytes += len(p)
	for _, b := range p {
		if b == '\n' {
			lc.lines++
			if len(lc.lens) < 1<<16 {
				lc.lens = append(lc.lens, lc.cur)
			}
			lc.cur = 0
		} else {
			lc.cur++
		}
	}
	return len(p), nil
}

func (s *site) readDesign(path string) ([]byte, error) {
	if !filepath.IsLocal(path) {
		return nil, fmt.Errorf("design path %q must be relative", path)
	}
	return os.ReadFile(filepath.Join(s.dir, "designs", path))
}

// traceRun holds one traced invocation's state.
type traceRun struct {
	e     *env
	s     *site
	t     *tracer
	r     *runner
	ops   []op
	kinds []string
	pc    []perCmd
}

// serveWire starts an in-process wire.Server on a loopback listener,
// stamping when st is non-nil.
func (tr *traceRun) serveWire(ps *passStore, st *wireStamps) (*wire.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	addr := ln.Addr().String()
	if st != nil {
		ln = &stampListener{Listener: ln, st: st}
	}
	srv := &wire.Server{DB: ps.db, ReadFile: tr.s.readDesign, Durability: ps.dur.Info, Hydration: ps.dur.Store.LazyInfo}
	go srv.Serve(ln)
	return srv, addr, nil
}

// passWire replays the stream over the wire. With stamp it is the
// traced pass; without, the plain one it is compared with.
func (tr *traceRun) passWire(stamp bool) (st *wireStamps, p50 float64, dial float64, err error) {
	var t *tracer
	if stamp {
		t = tr.t
		st = &wireStamps{}
	}
	ps, err := tr.openCopy(t)
	if err != nil {
		return nil, 0, 0, err
	}
	defer ps.close()
	srv, addr, err := tr.serveWire(ps, st)
	if err != nil {
		return nil, 0, 0, err
	}
	defer srv.Shutdown(time.Second)
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, 0, 0, err
	}
	defer c.Close()
	lats := make([]float64, len(tr.ops))
	for i := range tr.ops {
		o := &tr.ops[i]
		ps.fs.cmd.Store(int64(i))
		t0 := time.Now()
		rows, err := c.Exec(o.cmd, nil)
		t1 := time.Now()
		ps.fs.cmd.Store(-1)
		tr.r.attempted.Add(1)
		if err != nil {
			tr.r.fail("traced wire pass %q: %v", o.cmd, err)
			continue
		}
		lats[i] = micros(t1.Sub(t0))
		if !stamp {
			continue
		}
		tr.pc[i].roundtrip = t1.Sub(t0)
		tr.pc[i].rows[0] = rows
		tr.t.add(i, "wire.roundtrip", o.kind.String(), t0, t1)
	}
	if stamp {
		// The client can have the last reply before the server's Write has
		// returned and been stamped.
		for wait := 0; wait < 1000; wait++ {
			st.mu.Lock()
			done := len(st.replyWritten) >= len(tr.ops)
			st.mu.Unlock()
			if done {
				break
			}
			time.Sleep(time.Millisecond)
		}
		st.mu.Lock()
		if len(st.cmdRead) != len(tr.ops) || len(st.replyWritten) != len(tr.ops) {
			tr.r.fail("stamping listener saw %d commands and %d replies, want %d", len(st.cmdRead), len(st.replyWritten), len(tr.ops))
		} else {
			for i := range tr.ops {
				tr.pc[i].server = st.replyWritten[i].Sub(st.cmdRead[i])
				tr.t.add(i, "wire.server", tr.ops[i].kind.String(), st.cmdRead[i], st.replyWritten[i])
			}
		}
		st.mu.Unlock()
		return st, percentile(lats, 50), 0, nil
	}
	// Dial and handshake, on the unstamped server.
	var dials []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		c2, err := wire.Dial(addr)
		if err != nil {
			return nil, 0, 0, err
		}
		dials = append(dials, micros(time.Since(t0)))
		c2.Close()
	}
	return nil, percentile(lats, 50), percentile(dials, 50), nil
}

func memNow() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// passCQL replays the stream through cql.Env.Exec.
func (tr *traceRun) passCQL() (lc *lineCounter, allocs float64, err error) {
	ps, err := tr.openCopy(nil)
	if err != nil {
		return nil, 0, err
	}
	defer ps.close()
	lc = &lineCounter{}
	env := &cql.Env{DB: ps.db, Out: lc, ReadFile: tr.s.readDesign}
	m0, _ := memNow()
	for i := range tr.ops {
		o := &tr.ops[i]
		kind := o.kind.String()
		t0 := time.Now()
		_, lerr := cql.Lex(o.cmd)
		t1 := time.Now()
		_, perr := cql.Parse(o.cmd)
		t2 := time.Now()
		lines, bytes0 := lc.lines, lc.bytes
		xerr := env.Exec(o.cmd)
		t3 := time.Now()
		tr.r.attempted.Add(1)
		if lerr != nil || perr != nil || xerr != nil {
			tr.r.fail("traced cql pass %q: %v %v %v", o.cmd, lerr, perr, xerr)
			continue
		}
		pc := &tr.pc[i]
		pc.lex, pc.parse, pc.exec = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
		pc.rows[1], pc.outBytes = lc.lines-lines, lc.bytes-bytes0
		tr.t.add(i, "cql.parse", kind, t1, t2)
		tr.t.add(i, "cql.exec", kind, t2, t3)
	}
	m1, _ := memNow()
	return lc, float64(m1-m0) / float64(len(tr.ops)), nil
}

func bindings(ps []cql.ExpandParam) map[string]int {
	m := make(map[string]int, len(ps))
	for _, p := range ps {
		m[p.Name.Text] = p.Value
	}
	return m
}

// engineCall makes the engine call cql.Env.Exec would make for stmt,
// with a visitor that only counts.
func engineCall(db *icdb.DB, stmt cql.Stmt) (rows int, err error) {
	switch s := stmt.(type) {
	case *cql.ParetoStmt:
		err = db.Pareto(icdb.ParetoQuery{Dominated: s.Dominated}, func(icdb.ParetoPoint) bool {
			if s.HasLimit && rows >= s.Limit {
				return false
			}
			rows++
			return true
		})
	case *cql.ShowStmt:
		switch s.What.Text {
		case "impls":
			var v []icdb.Impl
			v, err = db.Impls()
			rows = len(v)
		case "explorations":
			var v []icdb.Exploration
			v, err = db.Explorations()
			rows = len(v)
		case "generators":
			var v []icdb.Generator
			v, err = db.Generators()
			rows = len(v)
		default:
			err = fmt.Errorf("no engine call for show %s", s.What.Text)
		}
	case *cql.DescribeStmt:
		if _, err = db.ImplByName(s.Name.Text); err == nil {
			_, err = db.Estimators(s.Name.Text)
		}
		rows = -1 // the reply's lines are formatting, not engine rows
	case *cql.EstimateStmt:
		if _, err = db.ImplByName(s.Name.Text); err == nil {
			_, _, _, err = db.EstimateImpl(s.Name.Text, s.Width)
		}
		rows = 1
	case *cql.GenerateStmt:
		_, _, err = db.Generate(s.Name.Text, bindings(s.Params))
		rows = 1
	case *cql.ExploreStmt:
		var pts []icdb.ExplorePoint
		pts, err = db.Explore(s.Gen.Text, s.Lo, s.Hi, max(s.Step, 1), bindings(s.Params), s.Materialize)
		rows = len(pts) + 1
	default:
		err = fmt.Errorf("no engine call for %T", stmt)
	}
	return rows, err
}

// passICDB replays the stream at the engine's own entry points.
func (tr *traceRun) passICDB() (ps *passStore, allocs, kb float64, err error) {
	ps, err = tr.openCopy(tr.t)
	if err != nil {
		return nil, 0, 0, err
	}
	ex := expand.New(ps.db)
	m0, b0 := memNow()
	for i := range tr.ops {
		o := &tr.ops[i]
		kind := o.kind.String()
		pc := &tr.pc[i]
		stmt, err := cql.Parse(o.cmd)
		tr.r.attempted.Add(1)
		if err != nil {
			tr.r.fail("traced icdb pass %q: %v", o.cmd, err)
			continue
		}
		j0, _ := ps.fs.snapshot()
		ps.fs.cmd.Store(int64(i))
		rows := 0
		switch s := stmt.(type) {
		case *cql.FindStmt:
			t0 := time.Now()
			q, cerr := cql.CompileFind(ps.db, s)
			t1 := time.Now()
			if err = cerr; err == nil {
				err = q.Run(func(icdb.Candidate) bool { rows++; return true })
			}
			t2 := time.Now()
			rows = max(rows, 1) // an empty answer prints one line
			pc.compile, pc.call = t1.Sub(t0), t2.Sub(t1)
			tr.t.add(i, "cql.compile", kind, t0, t1)
			tr.t.add(i, "icdb.call", kind, t1, t2)
		case *cql.ExpandStmt:
			var src []byte
			if src, err = tr.s.readDesign(s.Path.Text); err != nil {
				break
			}
			t0 := time.Now()
			d, perr := iif.Parse(string(src))
			t1 := time.Now()
			var net *eqn.Network
			if err = perr; err == nil {
				net, err = ex.Expand(d, bindings(s.Params))
			}
			t2 := time.Now()
			if err == nil {
				if err = net.Validate(); err == nil {
					if _, err = net.TopoOrder(); err == nil {
						rows = bytes.Count([]byte(net.Format()), []byte("\n"))
					}
				}
			}
			t3 := time.Now()
			pc.iifParse, pc.expandD, pc.format = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
			tr.t.add(i, "iif.parse", kind, t0, t1)
			tr.t.add(i, "expand.expand", kind, t1, t2)
			tr.t.add(i, "eqn.format", kind, t2, t3)
		default:
			t0 := time.Now()
			rows, err = engineCall(ps.db, stmt)
			t1 := time.Now()
			pc.call = t1.Sub(t0)
			tr.t.add(i, "icdb.call", kind, t0, t1)
		}
		ps.fs.cmd.Store(-1)
		if err != nil {
			tr.r.fail("traced icdb pass %q: %v", o.cmd, err)
			continue
		}
		j1, _ := ps.fs.snapshot()
		pc.jWrite = time.Duration(j1.writeNs - j0.writeNs)
		pc.jSync = time.Duration(j1.syncNs - j0.syncNs)
		pc.rows[2] = rows
	}
	m1, b1 := memNow()
	n := float64(len(tr.ops))
	return ps, float64(m1-m0) / n, float64(b1-b0) / n, nil
}

// checkRows holds the three passes to one another and to the model: the
// same command must have produced the same number of rows everywhere.
func (tr *traceRun) checkRows() {
	for i := range tr.ops {
		o, pc := &tr.ops[i], &tr.pc[i]
		if pc.rows[0] != pc.rows[1] || (pc.rows[2] >= 0 && pc.rows[2] != pc.rows[0]) || (o.rows >= 0 && o.rows != pc.rows[0]) {
			tr.r.fail("traced %q: rows wire %d, cql %d, icdb %d, model %d", o.cmd, pc.rows[0], pc.rows[1], pc.rows[2], o.rows)
		}
	}
}

// med is the median, in µs, of f over the commands it applies to.
func (tr *traceRun) med(f func(*perCmd) (time.Duration, bool)) metric {
	var xs []float64
	for i := range tr.pc {
		if d, ok := f(&tr.pc[i]); ok {
			xs = append(xs, micros(d))
		}
	}
	if len(xs) == 0 {
		return metric{0, "us", 0}
	}
	return metric{percentile(xs, 50), "us", len(xs)}
}

// perRow is the marginal cost of one more reply row, in ns: commands are
// grouped by reply size, each group reduced to its median, and a line
// fitted through the medians weighted by group size. Medians keep one
// slow fsync or GC pause from tilting the line.
func (tr *traceRun) perRow(f func(*perCmd) time.Duration) metric {
	groups := map[int][]float64{}
	for i := range tr.pc {
		pc := &tr.pc[i]
		groups[pc.rows[0]] = append(groups[pc.rows[0]], float64(f(pc).Nanoseconds()))
	}
	var sw, sx, sy, sxx, sxy float64
	for rows, ys := range groups {
		w, x, y := float64(len(ys)), float64(rows), percentile(ys, 50)
		sw, sx, sy, sxx, sxy = sw+w, sx+w*x, sy+w*y, sxx+w*x*x, sxy+w*x*y
	}
	den := sw*sxx - sx*sx
	if den == 0 {
		return metric{0, "ns", len(tr.pc)}
	}
	return metric{(sw*sxy - sx*sy) / den, "ns", len(tr.pc)}
}

func always(f func(*perCmd) time.Duration) func(*perCmd) (time.Duration, bool) {
	return func(pc *perCmd) (time.Duration, bool) { return f(pc), true }
}

// engine is the time a command spent below cql: the engine call, or for
// an expand its three stages.
func (pc *perCmd) engine() time.Duration { return pc.call + pc.iifParse + pc.expandD + pc.format }

func (e *env) runTrace(w *workload, seconds float64) (map[string]metric, *runner, error) {
	s, err := e.prepare(w)
	if err != nil {
		return nil, nil, err
	}
	r := newRunner(e, s)
	tr := &traceRun{e: e, s: s, r: r, t: &tracer{workload: w.name, epoch: time.Now()}}
	st := newStream(s, e.seed, 0, 1)
	for i := 0; i < w.traceOps; i++ {
		tr.ops = append(tr.ops, st.next())
		tr.kinds = append(tr.kinds, tr.ops[i].kind.String())
	}
	tr.pc = make([]perCmd, len(tr.ops))
	M := map[string]metric{}
	phase := time.Now()
	lap := func(what string) {
		e.logf("%s: traced %s took %.1fs", w.name, what, time.Since(phase).Seconds())
		phase = time.Now()
	}
	nOps := float64(len(tr.ops))

	// The four passes.
	stamps, tracedP50, _, err := tr.passWire(true)
	if err != nil {
		return nil, r, err
	}
	runtime.GC()
	_, plainP50, dial, err := tr.passWire(false)
	if err != nil {
		return nil, r, err
	}
	runtime.GC()
	lc, cqlAllocs, err := tr.passCQL()
	if err != nil {
		return nil, r, err
	}
	runtime.GC()
	ps, icdbAllocs, icdbKB, err := tr.passICDB()
	if err != nil {
		return nil, r, err
	}
	lap("passes")
	tr.checkRows()
	jPass, _ := ps.fs.snapshot()
	if !w.journal && (jPass.writes != 0 || jPass.syncs != 0) {
		r.fail("%s is read-only but its traced pass made %d journal writes and %d syncs", w.name, jPass.writes, jPass.syncs)
	}
	M["relstore.journal.pass_writes"] = metric{float64(jPass.writes), "count", len(tr.ops)}
	M["relstore.journal.pass_syncs"] = metric{float64(jPass.syncs), "count", len(tr.ops)}
	M["relstore.journal.compactions"] = metric{float64(ps.dur.Info().Compactions), "count", len(tr.ops)}

	var rowsTotal, outBytes float64
	for i := range tr.pc {
		rowsTotal += float64(tr.pc[i].rows[0])
		outBytes += float64(tr.pc[i].outBytes)
	}
	M["wire.roundtrip_p50_us"] = metric{tracedP50, "us", len(tr.ops)}
	M["wire.client_self_us"] = tr.med(always(func(pc *perCmd) time.Duration { return pc.roundtrip - pc.server }))
	M["wire.server_self_us"] = tr.med(always(func(pc *perCmd) time.Duration { return pc.server - pc.exec }))
	M["wire.dial_handshake_us"] = metric{dial, "us", 20}
	M["wire.self_ns_per_row"] = tr.perRow(func(pc *perCmd) time.Duration { return pc.server - pc.exec })
	M["wire.frames_per_op"] = metric{float64(stamps.frames) / nOps, "count", len(tr.ops)}
	M["wire.bytes_per_op"] = metric{float64(stamps.bytes) / nOps, "B", len(tr.ops)}
	M["cql.lex_us"] = tr.med(always(func(pc *perCmd) time.Duration { return pc.lex }))
	M["cql.parse_us"] = tr.med(always(func(pc *perCmd) time.Duration { return pc.parse }))
	M["cql.compile_us"] = tr.med(func(pc *perCmd) (time.Duration, bool) { return pc.compile, pc.compile > 0 })
	M["cql.exec_us"] = tr.med(always(func(pc *perCmd) time.Duration { return pc.exec }))
	M["cql.self_us"] = tr.med(always(func(pc *perCmd) time.Duration { return pc.exec - pc.parse - pc.compile - pc.engine() }))
	M["cql.self_ns_per_row"] = tr.perRow(func(pc *perCmd) time.Duration { return pc.exec - pc.parse - pc.compile - pc.engine() })
	M["cql.out_bytes_per_op"] = metric{outBytes / nOps, "B", len(tr.ops)}
	M["cql.allocs_per_op"] = metric{cqlAllocs, "count", len(tr.ops)}
	M["icdb.call_us"] = tr.med(always((*perCmd).engine))
	M["icdb.self_us"] = tr.med(always(func(pc *perCmd) time.Duration { return pc.engine() - pc.jWrite - pc.jSync }))
	M["icdb.ns_per_row"] = tr.perRow((*perCmd).engine)
	M["icdb.allocs_per_op"] = metric{icdbAllocs, "count", len(tr.ops)}
	M["icdb.bytes_per_op"] = metric{icdbKB, "B", len(tr.ops)}

	// |median roundtrip − Σ median selfs| / median roundtrip: how far the
	// per-layer medians are from adding up.
	sum := M["wire.client_self_us"].Value + M["wire.server_self_us"].Value + M["cql.self_us"].Value +
		M["cql.parse_us"].Value + M["cql.compile_us"].Value + M["icdb.call_us"].Value
	M["trace.self_sum_residual_frac"] = metric{abs(tracedP50-sum) / tracedP50, "frac", len(tr.ops)}
	M["trace.overhead_frac"] = metric{tracedP50/plainP50 - 1, "frac", len(tr.ops)}

	// Frame encode and decode on a buffer, with the workload's median row.
	rowLen := 0
	if len(lc.lens) > 0 {
		lens := make([]float64, len(lc.lens))
		for i, l := range lc.lens {
			lens[i] = float64(l)
		}
		rowLen = int(percentile(lens, 50))
	}
	M["wire.frame_write_ns"], M["wire.frame_read_ns"] = frameMicro(rowLen)

	// Direct calls on the layers below, on this workload's catalog. The
	// journal probe reuses the icdb pass's durable store.
	if err := tr.journalMicro(ps, M); err != nil {
		return nil, r, err
	}
	ps.close()
	runtime.GC()
	if err := tr.storeMicro(M); err != nil {
		return nil, r, err
	}
	if err := tr.replayMicro(M); err != nil {
		return nil, r, err
	}
	if err := expandMicro(M); err != nil {
		return nil, r, err
	}
	runtime.GC()
	lap("micro-calls")

	// The real server once more, for the per-kind client latencies, the
	// window spread and the process-level boot figures.
	out, _, err := e.runE2E(w, e2eOpts{seconds: seconds / 2, setups: 1, probe: true, site: s, runner: r})
	if err != nil {
		return nil, r, err
	}
	lap("end-to-end part")
	for k := opKind(0); k < numKinds; k++ {
		M["op."+k.String()+"_p50_us"] = out.kindP50[k]
	}
	M["noise.window_spread_frac"] = metric{out.spread, "frac", windows}
	var listens []float64
	for _, b := range out.boots {
		listens = append(listens, b.listen.Seconds()*1e3)
	}
	M["icdbd.listen_ms"] = metric{median(listens), "ms", len(listens)}
	M["icdbd.eager_ttfq_s"] = metric{out.eager.ttfq.Seconds(), "s", 1}

	if err := tr.t.write(filepath.Join(e.root, "bench", "out", "trace-"+w.name+".jsonl")); err != nil {
		return nil, r, err
	}
	return M, r, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// frameMicro times wire.WriteFrame and wire.ReadFrame of one Row frame
// of n payload bytes on a bytes.Buffer.
func frameMicro(n int) (write, read metric) {
	const iters = 20000
	payload := bytes.Repeat([]byte{'x'}, n)
	var buf bytes.Buffer
	buf.Grow(iters * (n + 5))
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		wire.WriteFrame(&buf, wire.FrameRow, payload)
	}
	t1 := time.Now()
	for i := 0; i < iters; i++ {
		wire.ReadFrame(&buf)
	}
	t2 := time.Now()
	return metric{float64(t1.Sub(t0).Nanoseconds()) / iters, "ns", iters},
		metric{float64(t2.Sub(t1).Nanoseconds()) / iters, "ns", iters}
}
