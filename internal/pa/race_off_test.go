//go:build !race

package pa

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
