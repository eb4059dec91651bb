//go:build !race

package splash

const raceEnabled = false
