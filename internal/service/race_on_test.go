//go:build race

package service

// raceEnabled reports that this test binary was built with -race. The race
// detector instruments sync.Pool (and randomly drops pooled items), so
// allocation-count pins are meaningless under it and skip themselves.
const raceEnabled = true
