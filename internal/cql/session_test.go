package cql

// Tests for the per-session parameters: set width / set area_weight /
// set delay_weight, show session, and their effect on find commands.

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// sess executes src against a fresh buffer on env, returning the output.
func sess(t *testing.T, env *Env, src string) string {
	t.Helper()
	var sb strings.Builder
	saved := env.Out
	env.Out = &sb
	err := env.Exec(src)
	env.Out = saved
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return sb.String()
}

func TestSetWidthDefaultsFind(t *testing.T) {
	db := openTestDB(t)
	env := &Env{DB: db}

	// With the session width set, a find without "at width" evaluates
	// estimators at the session width — identical output to the explicit
	// "at width" form.
	sess(t, env, "set width 16")
	implicit := sess(t, env, "find component of type Counter order by area")
	explicit := sess(t, env, "find component of type Counter at width 16 order by area")
	if implicit != explicit {
		t.Errorf("session width 16: implicit find output differs from 'at width 16':\n%s\nvs\n%s", implicit, explicit)
	}

	// An explicit "at width" on the command wins over the session width.
	at8 := sess(t, env, "find component of type Counter at width 8 order by area")
	env2 := &Env{DB: db}
	want8 := sess(t, env2, "find component of type Counter at width 8 order by area")
	if at8 != want8 {
		t.Errorf("explicit at width 8 did not win over session width:\n%s\nvs\n%s", at8, want8)
	}

	// "set width off" restores scalar estimates.
	sess(t, env, "set width off")
	scalar := sess(t, env, "find component of type Counter order by area")
	wantScalar := sess(t, env2, "find component of type Counter order by area")
	if scalar != wantScalar {
		t.Errorf("set width off did not restore scalar finds:\n%s\nvs\n%s", scalar, wantScalar)
	}
}

func TestSetWeightsRescoreFind(t *testing.T) {
	db := openTestDB(t)
	env := &Env{DB: db}

	// Delay-only scoring: every reported cost must equal the delay.
	sess(t, env, "set area_weight 0")
	sess(t, env, "set delay_weight 1")
	out := sess(t, env, "find component of type Counter order by cost limit 3")
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		di := strings.Index(line, "delay ")
		ci := strings.Index(line, "cost ")
		if di < 0 || ci < 0 {
			t.Fatalf("unexpected find row %q", line)
		}
		delay := strings.Fields(line[di:])[1]
		cost := strings.Fields(line[ci:])[1]
		if delay != cost {
			t.Errorf("with area_weight 0, delay_weight 1: cost %s != delay %s in %q", cost, delay, line)
		}
	}

	// The override is per-session: a fresh Env scores with the database
	// defaults again.
	fresh := sess(t, &Env{DB: db}, "find component of type Counter order by cost limit 3")
	if fresh == out {
		t.Errorf("fresh session unexpectedly matched the weighted session's output")
	}
}

// TestSetWeightsRescorePareto: session weights rescore a frontier's
// printed cost and nothing else. A plain "find pareto" under weights
// (served from the scope's maintained frontier) prints exactly the rows
// of the same query forced down the constrained path by a filter every
// point passes, and every cost is the weighted sum of its two axes.
func TestSetWeightsRescorePareto(t *testing.T) {
	env := &Env{DB: openTestDB(t)}
	for _, cmd := range []string{
		"explore gen_cnt width 4..32 step 4", "explore gen_sub width 2..34 step 8",
		"estimate cnt_up width=4", "estimate add_ripple width=8",
		"set area_weight 2", "set delay_weight 0.5",
	} {
		sess(t, env, cmd)
	}
	for _, scope := range []string{"", " of type Counter", " of generator gen_sub"} {
		fast := sess(t, env, "find pareto"+scope)
		constrained := sess(t, env, "find pareto"+scope+" with area >= 0")
		if fast != constrained {
			t.Errorf("find pareto%s: frontier path\n%s\nconstrained path\n%s", scope, fast, constrained)
		}
		for _, line := range strings.Split(strings.TrimSpace(fast), "\n") {
			f := strings.Fields(line)
			if len(f) < 11 || f[5] != "area" || f[7] != "delay" || f[9] != "cost" {
				t.Fatalf("find pareto%s: unexpected row %q", scope, line)
			}
			area, _ := strconv.ParseFloat(f[6], 64)
			delay, _ := strconv.ParseFloat(f[8], 64)
			if cost, _ := strconv.ParseFloat(f[10], 64); cost != 2*area+0.5*delay {
				t.Errorf("find pareto%s: cost %g in %q, want 2*area + 0.5*delay", scope, cost, line)
			}
		}
	}
}

func TestShowSession(t *testing.T) {
	db := openTestDB(t)
	env := &Env{DB: db}
	out := sess(t, env, "show session")
	for _, want := range []string{"width:", "off", "area_weight:", "1 (database default)", "delay_weight:"} {
		if !strings.Contains(out, want) {
			t.Errorf("show session output missing %q:\n%s", want, out)
		}
	}
	sess(t, env, "set width 8")
	sess(t, env, "set delay_weight 2.5")
	out = sess(t, env, "show session")
	for _, want := range []string{"width:        8", "delay_weight: 2.5 (session override"} {
		if !strings.Contains(out, want) {
			t.Errorf("show session after sets missing %q:\n%s", want, out)
		}
	}
}

func TestSetParseErrors(t *testing.T) {
	for src, want := range map[string]string{
		"set":                "expected session parameter",
		"set bogus 3":        "unknown session parameter 'bogus'",
		"set width":          "expected a number or 'off'",
		"set width 0":        "positive whole number",
		"set width 2.5":      "positive whole number",
		"set area_weight on": "expected a number or 'off'",
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) err = %v, want %q", src, err, want)
		}
	}
}

// failAfter fails the nth write, simulating a client that disappears
// mid-stream.
type failAfter struct {
	n    int
	errv error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.errv
	}
	f.n--
	return len(p), nil
}

// TestFindStopsOnWriteError pins the streaming contract a server
// depends on: when the output writer fails, the find stops and returns
// the write error instead of scanning the rest of the catalog.
func TestFindStopsOnWriteError(t *testing.T) {
	db := openTestDB(t)
	werr := errors.New("client gone")
	env := &Env{DB: db, Out: &failAfter{n: 1, errv: werr}}
	err := env.Exec("find component")
	if !errors.Is(err, werr) {
		t.Fatalf("find with failing writer: err = %v, want the write error", err)
	}
}
