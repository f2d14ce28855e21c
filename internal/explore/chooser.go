package explore

import (
	"math/rand"

	"rtlock/internal/sim"
)

// traceChooser replays a fixed pick prefix, then extends: canonically
// (DFS expansion, counterexample replay) or with a seeded RNG (random
// walks). Every consulted decision is recorded, so after the run the
// engine can branch the schedule at any position. An explorer worker
// keeps one chooser and resets it per schedule (replay, random), so its
// trace buffer and generator are allocated once.
//
// Replayed picks are clamped into [0, n): a prefix recorded against a
// schedule that has since diverged degrades to canonical picks instead
// of panicking, which is what makes the shrinker's speculative
// truncations safe.
type traceChooser struct {
	prefix []int
	rng    *rand.Rand
	draw   bool // extend with rng picks rather than canonically
	depth  int  // positions past which even the RNG stays canonical
	branch int  // RNG pick cap (mirrors Options.Branch)
	trace  []Decision
	pos    int
}

// replay resets c, keeping its trace buffer and generator, to reproduce
// picks then continue canonically: the schedule identified by picks.
func (c *traceChooser) replay(picks []int) *traceChooser {
	c.prefix, c.depth, c.branch = picks, 0, 0
	c.trace, c.pos = c.trace[:0], 0
	c.draw = false
	return c
}

// random resets c, keeping its trace buffer and generator, to draw up
// to depth picks (each below branch) from the stream of seed, then
// continue canonically. A reseeded generator draws what a new one
// would.
func (c *traceChooser) random(seed int64, depth, branch int) *traceChooser {
	c.replay(nil)
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(seed))
	} else {
		c.rng.Seed(seed)
	}
	c.depth, c.branch, c.draw = depth, branch, true
	return c
}

// Choose implements sim.Chooser.
func (c *traceChooser) Choose(p sim.ChoicePoint, n int) int {
	pick := 0
	switch {
	case c.pos < len(c.prefix):
		pick = c.prefix[c.pos]
		if pick < 0 {
			pick = 0
		}
		if pick >= n {
			pick = n - 1
		}
	case c.draw && c.pos < c.depth:
		w := n
		if c.branch > 0 && c.branch < w {
			w = c.branch
		}
		pick = c.rng.Intn(w)
	}
	c.trace = append(c.trace, Decision{Point: p, N: n, Pick: pick})
	c.pos++
	return pick
}
