package icdb

import "icdb/internal/iif"

// InternedPrograms reports how many estimator programs the intern table
// holds, for the external cost-contract tests (cost_test.go).
func (db *DB) InternedPrograms() int {
	db.cmu.RLock()
	defer db.cmu.RUnlock()
	return len(db.progs)
}

// CacheRebuilds reports, by relation, how many times the catalog part
// derived from it has been built from a scan: implementations,
// estimators and tool_params, and the frontier cache's scope builds
// (cold and foreign) for explorations.
func (db *DB) CacheRebuilds() map[string]uint64 {
	info := db.ParetoCacheInfo()
	return map[string]uint64{
		TableImplementations: db.rebuilds[partImpls].Load(),
		TableEstimators:      db.rebuilds[partEsts].Load(),
		TableToolParams:      db.rebuilds[partWeights].Load(),
		TableExplorations:    info.RebuildsCold + info.RebuildsForeign,
	}
}

// SetAfterPin makes every read run f between its pin and its checks, or
// nothing when f is nil: the seam through which the one-version tests
// write between a reader's pin and its checks.
func (db *DB) SetAfterPin(f func()) { db.afterPin = f }

// FindAll runs q to completion and returns its answer in delivery order
// with caller-owned implementations: ranked queries best first, streamed
// ones in stream order.
func (db *DB) FindAll(q Query) ([]Candidate, error) {
	var out []Candidate
	err := db.Find(q, func(c Candidate) bool {
		c.Impl = c.Impl.Clone()
		out = append(out, c)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EvalAttr interprets the parsed attribute expression e over a with the
// tree-walking evaluator (evalAttr), for the full-scan reference the
// external tests hold the compiled engine to.
func EvalAttr(e iif.Expr, a Attrs) (float64, error) { return evalAttr(e, a) }

// EstimatorJoins reports how many estimator joins (a posting list's
// estimator pairs read from one estimators part) have been built, and
// the by-name estimator lookups they made: the only ones on Find's path.
func (db *DB) EstimatorJoins() (builds, lookups uint64) {
	return db.joins.Load(), db.joinLookups.Load()
}
