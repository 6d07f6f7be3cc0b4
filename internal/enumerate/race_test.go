//go:build race

package enumerate_test

// raceEnabled shrinks the oracle sweep's budgets under the race detector,
// whose instrumentation slows every leaf by an order of magnitude. It
// scales budgets only, never what the tests assert.
const raceEnabled = true
