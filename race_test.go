//go:build race

package mcf0

func init() { raceEnabled = true }
