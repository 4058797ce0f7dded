package icdb

// InternedPrograms reports how many estimator programs the intern table
// holds, for the external cost-contract tests (cost_test.go).
func (db *DB) InternedPrograms() int {
	db.cmu.RLock()
	defer db.cmu.RUnlock()
	return len(db.progs)
}
