//go:build !race

package appgen

const raceEnabled = false
