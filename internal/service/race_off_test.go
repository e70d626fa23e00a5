//go:build !race

package service

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
