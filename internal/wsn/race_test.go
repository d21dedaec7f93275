//go:build race

package wsn

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops items at random.
const raceEnabled = true
