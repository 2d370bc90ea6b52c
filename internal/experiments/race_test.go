//go:build race

package experiments

// raceEnabled reports a test binary built with -race, whose several-fold
// slower host code inflates E1's measured rows.
const raceEnabled = true
