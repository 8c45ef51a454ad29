// Package hysteresis is the confirmation streak that keeps a verdict from
// flapping: a new verdict replaces the current one only after it has been
// proposed a given number of times in a row. The drift detector gates its
// container advice with it, and the SLO evaluator its health state. One
// divergent evaluation is noise; n in a row is a change.
package hysteresis

// Gate holds a confirmed verdict and the streak of the candidate that would
// replace it. The zero value is a gate whose current verdict is T's zero
// value.
type Gate[T comparable] struct {
	Current T   // the confirmed verdict
	Pending T   // the candidate, meaningful only while Streak > 0
	Streak  int // consecutive proposals of Pending so far
}

// Propose offers verdict v and reports whether it was just confirmed.
// Proposing Current clears the streak. Any other verdict extends the streak
// when it equals Pending and restarts it at 1 when it does not; on the n-th
// consecutive proposal v becomes Current, the streak clears, and Propose
// returns true. With n <= 1 a new verdict is confirmed at once.
func (g *Gate[T]) Propose(v T, n int) bool {
	if v == g.Current {
		g.Streak = 0
		return false
	}
	if g.Streak > 0 && v == g.Pending {
		g.Streak++
	} else {
		g.Pending, g.Streak = v, 1
	}
	if g.Streak < n {
		return false
	}
	g.Current, g.Streak = v, 0
	return true
}
