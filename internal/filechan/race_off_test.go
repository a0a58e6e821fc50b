//go:build !race

package filechan

const raceEnabled = false
