package main

// micro.go measures, by direct calls on the workload's own catalog, the
// layers the peel trace cannot see into from outside: relstore reads and
// writes, snapshot open and save, the journal, and the expand pipeline.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"icdb/internal/cql"
	"icdb/internal/expand"
	"icdb/internal/icdb"
	"icdb/internal/iif"
	"icdb/internal/relstore"
)

const microCalls = 2000

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// journalMicro appends never-repeated estimates to the icdb pass's
// durable store and reads the timing FS: what one journaled write costs,
// then what replaying and compacting the journal costs.
func (tr *traceRun) journalMicro(ps *passStore, M map[string]metric) error {
	const n = 200
	w := tr.s.w
	st := newStream(tr.s, tr.e.seed+3, 0, 1)
	st.estBase = w.traceOps // past every index the passes' stream used
	j0, _ := ps.fs.snapshot()
	var calls []float64
	for i := 0; i < n; i++ {
		stmt, err := cql.Parse(st.estimate().cmd)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := engineCall(ps.db, stmt); err != nil {
			return err
		}
		calls = append(calls, micros(time.Since(t0)))
	}
	j1, _ := ps.fs.snapshot()
	if got := j1.writes - j0.writes; got != n {
		tr.r.fail("journal probe: %d estimates made %d journal writes", n, got)
	}
	M["icdb.estimate_us"] = metric{percentile(calls, 50), "us", n}
	M["relstore.journal.write_us"] = metric{float64(j1.writeNs-j0.writeNs) / n / 1e3, "us", n}
	M["relstore.journal.sync_us"] = metric{float64(j1.syncNs-j0.syncNs) / n / 1e3, "us", n}
	M["relstore.journal.syncs_per_write"] = metric{float64(j1.syncs-j0.syncs) / n, "count", n}
	M["relstore.journal.bytes_per_write"] = metric{float64(j1.bytes-j0.bytes) / n, "B", n}

	if err := ps.dur.Close(); err != nil {
		return err
	}
	fs := &traceFS{}
	fs.cmd.Store(-1)
	d, err := relstore.OpenDurable(filepath.Join(ps.dir, "catalog.snap"), relstore.DurableOptions{CompactAt: -1, FS: fs})
	if err != nil {
		return err
	}
	defer d.Close()
	t0 := time.Now()
	if err := d.Compact(); err != nil {
		return err
	}
	M["relstore.journal.compact_ms"] = metric{ms(time.Since(t0)), "ms", 1}
	_, rw := fs.snapshot()
	M["relstore.journal.compact_bytes"] = metric{float64(rw.bytes), "B", 1}
	// Every byte this store's journal and its rewrites took, the closing
	// compaction included, per journal record appended.
	_, passRW := ps.fs.snapshot()
	M["relstore.journal.storage_bytes_per_write"] = metric{float64(j1.bytes+passRW.bytes+rw.bytes) / float64(j1.writes), "B", int(j1.writes)}
	return nil
}

// storeMicro times snapshot open, hydrate and save, icdb.Open and the
// first query, and single relstore and icdb calls, on the pristine
// catalog file.
func (tr *traceRun) storeMicro(M map[string]metric) error {
	path, rows := tr.s.dbPath, float64(tr.s.rows)
	reps := 3
	if tr.s.w.big {
		reps = 1
	}
	// open decodes the catalog reps times and returns the last store with
	// the median time and allocation count.
	open := func(opt relstore.SnapshotOptions) (st *relstore.Store, msMed, allocMed float64, err error) {
		var times, allocs []float64
		for i := 0; i < reps; i++ {
			st = nil // the previous copy may be collected before the next is decoded
			m0, _ := memNow()
			t0 := time.Now()
			if st, err = relstore.OpenSnapshot(path, opt); err != nil {
				return nil, 0, 0, err
			}
			times = append(times, ms(time.Since(t0)))
			m1, _ := memNow()
			allocs = append(allocs, float64(m1-m0))
		}
		return st, median(times), median(allocs), nil
	}
	_, serial, serialAllocs, err := open(relstore.SnapshotOptions{Workers: 1})
	if err != nil {
		return err
	}
	lazy, lazyMs, _, err := open(relstore.SnapshotOptions{Mode: relstore.OpenLazy})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := lazy.HydrateAll(); err != nil {
		return err
	}
	hydrate := ms(time.Since(t0))
	lazy = nil // release it before the next full decode
	store, eager, _, err := open(relstore.SnapshotOptions{})
	if err != nil {
		return err
	}
	M["relstore.snapshot.open_eager_ms"] = metric{eager, "ms", reps}
	M["relstore.snapshot.open_serial_ms"] = metric{serial, "ms", reps}
	M["relstore.snapshot.parallel_speedup"] = metric{serial / eager, "x", reps} // base: open_serial_ms
	M["relstore.snapshot.open_lazy_ms"] = metric{lazyMs, "ms", reps}
	M["relstore.snapshot.hydrate_all_ms"] = metric{hydrate, "ms", 1}
	M["relstore.snapshot.decode_ns_per_row"] = metric{serial * 1e6 / rows, "ns", int(rows)}
	M["relstore.snapshot.decode_allocs_per_row"] = metric{serialAllocs / rows, "count", int(rows)}

	t0 = time.Now()
	if err := store.SaveSnapshot(filepath.Join(tr.e.tmp, "micro-save.snap")); err != nil {
		return err
	}
	save := ms(time.Since(t0))
	os.Remove(filepath.Join(tr.e.tmp, "micro-save.snap"))
	M["relstore.snapshot.save_ms"] = metric{save, "ms", 1}
	M["relstore.snapshot.encode_ns_per_row"] = metric{save * 1e6 / rows, "ns", int(rows)}

	t0 = time.Now()
	db, err := icdb.Open(store)
	if err != nil {
		return err
	}
	M["icdb.open_ms"] = metric{ms(time.Since(t0)), "ms", 1}
	stmt, err := cql.Parse(tr.s.pools.byKind[kFindTopK][0].cmd)
	if err != nil {
		return err
	}
	t0 = time.Now()
	q, err := cql.CompileFind(db, stmt.(*cql.FindStmt))
	if err == nil {
		err = q.Run(func(icdb.Candidate) bool { return true })
	}
	if err != nil {
		return err
	}
	M["icdb.first_query_ms"] = metric{ms(time.Since(t0)), "ms", 1}

	names := make([]string, microCalls)
	for i := range names {
		names[i] = tr.s.model.impls[builtinCount+i*7919%tr.s.nSynth].Name
	}
	t0 = time.Now()
	for _, n := range names {
		if _, err := store.Get(icdb.TableImplementations, n); err != nil {
			return err
		}
	}
	M["relstore.get_ns"] = metric{float64(time.Since(t0).Nanoseconds()) / microCalls, "ns", microCalls}
	var point []float64
	for _, n := range names {
		t0 := time.Now()
		if _, err := db.ImplByName(n); err != nil {
			return err
		}
		point = append(point, micros(time.Since(t0)))
	}
	M["icdb.point_us"] = metric{percentile(point, 50), "us", microCalls}

	scanned := 0
	t0 = time.Now()
	if err := store.Scan(icdb.TableImplementations, nil, func(relstore.Row) bool { scanned++; return true }); err != nil {
		return err
	}
	M["relstore.scan_ns_per_row"] = metric{float64(time.Since(t0).Nanoseconds()) / float64(scanned), "ns", scanned}
	selected := 0
	t0 = time.Now()
	for g := 0; g < 50; g++ {
		got, err := store.Select(icdb.TableExplorations, relstore.Eq("generator", fmt.Sprintf("syn_%06d", g%tr.s.nSynth)))
		if err != nil {
			return err
		}
		selected += len(got)
	}
	M["relstore.select_ns_per_row"] = metric{float64(time.Since(t0).Nanoseconds()) / float64(max(selected, 1)), "ns", selected}

	// Frontier over every point: warm on a workload that only reads, cold
	// (a write just dropped the scope cache) on one that writes.
	all := func() error { return db.Pareto(icdb.ParetoQuery{}, func(icdb.ParetoPoint) bool { return true }) }
	if err := all(); err != nil {
		return err
	}
	var pareto []float64
	for i := 0; i < 5; i++ {
		if tr.s.w.journal {
			if err := store.Upsert(icdb.TableExplorations, probeRow(-1-i)); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := all(); err != nil {
			return err
		}
		pareto = append(pareto, micros(time.Since(t0)))
	}
	M["icdb.pareto_us"] = metric{percentile(pareto, 50), "us", len(pareto)}

	t0 = time.Now()
	for i := 0; i < microCalls; i++ {
		if err := store.Upsert(icdb.TableExplorations, probeRow(i)); err != nil {
			return err
		}
	}
	M["relstore.upsert_ns"] = metric{float64(time.Since(t0).Nanoseconds()) / microCalls, "ns", microCalls}
	return nil
}

// replayMicro times journal replay where nothing else is in the open: a
// durable store with no snapshot, whose journal holds the bootstrap and n
// upserts, is closed and opened again. Replay cost per record does not
// depend on the catalog, and on a large one the snapshot decode would
// drown it.
func (tr *traceRun) replayMicro(M map[string]metric) error {
	dir, err := os.MkdirTemp(tr.e.tmp, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "catalog.snap")
	opt := relstore.DurableOptions{Fsync: relstore.FsyncOff, CompactAt: -1}
	d, err := relstore.OpenDurable(path, opt)
	if err != nil {
		return err
	}
	if _, err := icdb.Open(d.Store); err != nil {
		d.Close()
		return err
	}
	for i := 0; i < microCalls; i++ {
		if err := d.Store.Upsert(icdb.TableExplorations, probeRow(i)); err != nil {
			d.Close()
			return err
		}
	}
	if err := d.Close(); err != nil {
		return err
	}
	var times []float64
	recs := 0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		d, err := relstore.OpenDurable(path, opt)
		if err != nil {
			return err
		}
		times = append(times, micros(time.Since(t0)))
		recs = d.Recovery().Replayed
		d.Close()
	}
	M["relstore.journal.replay_us_per_record"] = metric{median(times) / float64(max(recs, 1)), "us", recs}
	return nil
}

func probeRow(i int) relstore.Row {
	return relstore.Row{"generator": "bench_probe", "bindings": fmt.Sprintf("size=%d", i),
		"component": "Counter", "width": 8, "area": 1e6 + float64(i), "delay": 1e6}
}

// expandMicro times the three stages of an expand on a scratch database
// holding only the builtin library.
func expandMicro(M map[string]metric) error {
	db, err := icdb.Open(relstore.New())
	if err != nil {
		return err
	}
	ex := expand.New(db)
	src := designSource()
	const iters = 60
	var parse, exp, format []float64
	m0, _ := memNow()
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		d, err := iif.Parse(src)
		if err != nil {
			return err
		}
		t1 := time.Now()
		net, err := ex.Expand(d, map[string]int{"size": 2 + i%15})
		if err != nil {
			return err
		}
		t2 := time.Now()
		if err := net.Validate(); err != nil {
			return err
		}
		if _, err := net.TopoOrder(); err != nil {
			return err
		}
		_ = net.Format()
		t3 := time.Now()
		parse = append(parse, micros(t1.Sub(t0)))
		exp = append(exp, micros(t2.Sub(t1)))
		format = append(format, micros(t3.Sub(t2)))
	}
	m1, _ := memNow()
	M["iif.parse_us"] = metric{percentile(parse, 50), "us", iters}
	M["expand.expand_us"] = metric{percentile(exp, 50), "us", iters}
	M["eqn.format_us"] = metric{percentile(format, 50), "us", iters}
	M["expand.allocs_per_op"] = metric{float64(m1-m0) / iters, "count", iters}
	return nil
}
