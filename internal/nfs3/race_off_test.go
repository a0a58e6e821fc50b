//go:build !race

package nfs3_test

const raceEnabled = false
