//go:build !race

package sweep

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
