//go:build !race

package enumerate_test

// raceEnabled is false outside -race builds; see race_test.go.
const raceEnabled = false
