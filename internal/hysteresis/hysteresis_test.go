package hysteresis

import "testing"

// step is one proposal and the gate it must leave behind.
type step struct {
	v       string
	flipped bool
	current string
	streak  int
}

func run(t *testing.T, g *Gate[string], n int, steps []step) {
	t.Helper()
	for i, s := range steps {
		if got := g.Propose(s.v, n); got != s.flipped || g.Current != s.current || g.Streak != s.streak {
			t.Fatalf("step %d: Propose(%q, %d) = %v, gate %+v; want %v, current %q, streak %d",
				i, s.v, n, got, *g, s.flipped, s.current, s.streak)
		}
	}
}

func TestFlipsOnTheNthAgreeingProposal(t *testing.T) {
	g := Gate[string]{Current: "ok"}
	run(t, &g, 3, []step{
		{"bad", false, "ok", 1},
		{"bad", false, "ok", 2},
		{"bad", true, "bad", 0},
		{"bad", false, "bad", 0},
	})
}

func TestDifferentVerdictRestartsTheStreak(t *testing.T) {
	g := Gate[string]{Current: "ok"}
	run(t, &g, 2, []step{
		{"bad", false, "ok", 1},
		{"worse", false, "ok", 1},
		{"worse", true, "worse", 0},
	})
	if g.Pending != "worse" {
		t.Fatalf("pending = %q", g.Pending)
	}
}

func TestProposingCurrentClearsTheStreak(t *testing.T) {
	g := Gate[string]{Current: "ok"}
	run(t, &g, 2, []step{
		{"bad", false, "ok", 1},
		{"ok", false, "ok", 0},
		{"bad", false, "ok", 1},
		{"bad", true, "bad", 0},
	})
}

func TestOneFlipsAtOnce(t *testing.T) {
	for _, n := range []int{1, 0, -1} {
		g := Gate[string]{Current: "ok"}
		run(t, &g, n, []step{
			{"bad", true, "bad", 0},
			{"ok", true, "ok", 0},
			{"ok", false, "ok", 0},
		})
	}
}

func TestZeroValueGate(t *testing.T) {
	var g Gate[string]
	run(t, &g, 2, []step{
		{"", false, "", 0},
		{"x", false, "", 1},
		{"x", true, "x", 0},
	})
	var k Gate[int]
	if k.Propose(0, 1) || !k.Propose(4, 1) || k.Current != 4 {
		t.Fatalf("zero int gate: %+v", k)
	}
}
