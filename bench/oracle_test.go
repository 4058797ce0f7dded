package main

import (
	"fmt"
	"strings"
	"testing"

	"icdb/internal/cql"
)

// execLines runs one command in-process and returns its output rows.
func execLines(t *testing.T, env *cql.Env, cmd string) []string {
	t.Helper()
	var b strings.Builder
	env.Out = &b
	if err := env.Exec(cmd); err != nil {
		t.Fatalf("%q: %v", cmd, err)
	}
	return splitLines(b.String())
}

// TestOracleAgainstEngine cross-checks the brute-force oracle with the
// engine on three seeds at 1k implementations: every pool command of
// every kind, the frontier questions, and the write kinds, whose effect
// on later answers the model must track.
func TestOracleAgainstEngine(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		c, err := buildRegistered(seed, 1000)
		if err != nil {
			t.Fatal(err)
		}
		m := c.model
		env := &cql.Env{DB: c.db}
		check := func(o op) {
			t.Helper()
			got := execLines(t, env, o.cmd)
			if o.rows >= 0 && len(got) != o.rows {
				t.Errorf("seed %d %q: %d rows, pool says %d", seed, o.cmd, len(got), o.rows)
			}
			if d := replyDiff(&o, got, o.expect(m)); d != "" {
				t.Errorf("seed %d %q: %s", seed, o.cmd, d)
			}
		}
		hot := buildPools(workloadByName("find-hot"), m, seed)
		for k := opKind(0); k <= kPareto; k++ {
			for _, o := range hot.byKind[k] {
				check(o)
			}
		}
		wd := workloadByName("write-durable")
		st := newStream(&site{w: wd, model: m, pools: buildPools(wd, m, seed), nSynth: 1000}, seed, 0, 1)
		for i := 0; i < 50; i++ {
			check(st.make(kDescribe))
		}
		for _, limit := range []int{0, 5, 10} {
			for _, dom := range []bool{false, true} {
				cmd := "find pareto"
				if dom {
					cmd += " dominated"
				}
				if limit > 0 {
					cmd += fmt.Sprintf(" limit %d", limit)
				}
				check(op{kind: kPareto, cmd: cmd, rows: -1, expect: func(m *model) []string { return m.pareto(dom, limit) }})
			}
		}
		// Writes: each reply must match, and so must the listings after.
		for i := 0; i < 300; i++ {
			check(st.make([]opKind{kEstimate, kGenerate, kExplore}[i%3]))
		}
		dyn := buildPools(workloadByName("write-durable"), m, seed+100)
		for _, k := range []opKind{kFindTopK, kFindWidth, kFindAll, kShowImpls, kPareto} {
			for _, o := range dyn.byKind[k] {
				check(o)
			}
		}
		check(op{kind: kShowImpls, cmd: "show explorations", rows: len(m.points), expect: func(m *model) []string { return m.showExplorations() }})
	}
}

// TestCorruptedReplyFails: the correctness gate must notice a reply with
// one character changed, a missing row and an extra row, and that must
// turn into a failed run and a non-zero exit.
func TestCorruptedReplyFails(t *testing.T) {
	c, err := buildRegistered(1, 300)
	if err != nil {
		t.Fatal(err)
	}
	p := buildPools(workloadByName("find-hot"), c.model, 1)
	o := p.byKind[kFindTopK][0]
	good := execLines(t, &cql.Env{DB: c.db}, o.cmd)
	corrupt := func(mutate func([]string) []string) *result {
		r := newRunner(&env{}, &site{model: c.model})
		lines := mutate(append([]string(nil), good...))
		r.check(&o, len(lines), lines, nil, true, true, 0)
		res := &result{Workload: "find-hot"}
		res.tally(r)
		return res
	}
	if res := corrupt(func(l []string) []string { return l }); !res.Correct || res.Attempted != 1 {
		t.Fatalf("untouched reply: %+v", res)
	}
	for name, mutate := range map[string]func([]string) []string{
		"one character": func(l []string) []string { l[2] = strings.Replace(l[2], "area", "aera", 1); return l },
		"missing row":   func(l []string) []string { return l[:len(l)-1] },
		"extra row":     func(l []string) []string { return append(l, l[0]) },
		"swapped rows":  func(l []string) []string { l[0], l[1] = l[1], l[0]; return l },
	} {
		res := corrupt(mutate)
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: run still correct: %+v", name, res)
		}
		if code := (&document{Runs: []*result{res}}).exitCode(); code == 0 {
			t.Errorf("%s: exit code 0", name)
		}
	}
}
