//go:build !race

package sunrpc

const raceEnabled = false
