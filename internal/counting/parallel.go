package counting

import (
	"mcf0/internal/oracle"
	"mcf0/internal/par"
)

// This file adapts the internal/par worker pools to the oracle backends.
// Trials use the dynamic pool (par.Run): per-trial cost is dominated by
// SAT-oracle calls whose cost varies by orders of magnitude, so dynamic
// index hand-out balances load where the static block partition the sketch
// layers use (par.RunSharded) would idle workers. ApproxMC's trials over a
// complete solution pool make no oracle call and all cost the same, so
// they take the static partition, with one scratch per shard. The
// median-trial loops of Algorithms 5–7 (and the Karp–Luby baseline) are
// embarrassingly parallel once two sequential dependencies are removed:
//
//   - randomness: all hash functions and per-trial RNG seeds are drawn
//     serially before the pool starts, in the same order a serial run
//     draws them, so a fixed seed yields bit-identical trials at any
//     parallelism level;
//   - oracle state: stateful backends are forked per trial via
//     oracle.Forkable at every parallelism (each fork meters its own
//     queries, summed back into the result, and is released when its
//     trial ends); backends that cannot fork force serial execution.

// runTrials executes fn(i) for i in [0, t) on up to workers goroutines.
// fn must write results only to its own trial slot; when workers > 1 it is
// invoked concurrently.
func runTrials(t, workers int, fn func(i int)) { par.Run(t, workers, fn) }

// trialSources hands each trial an oracle handle that is safe for the
// chosen worker count.
type trialSources struct {
	shared oracle.Source
	forks  []oracle.Source
}

// newTrialSources prepares per-trial sources for t trials. When src can
// fork, every trial gets an independent fork at every worker count, so a
// trial's oracle state (and with it the query meter, which depends on the
// solver's history) is a function of that trial alone. Otherwise all
// trials share src and the returned worker bound collapses to 1.
func newTrialSources(src oracle.Source, t, workers int) (trialSources, int) {
	f, ok := src.(oracle.Forkable)
	if !ok {
		return trialSources{shared: src}, 1
	}
	forks := make([]oracle.Source, t)
	for i := range forks {
		forks[i] = f.Fork()
	}
	return trialSources{forks: forks}, workers
}

// at returns trial i's source.
func (ts trialSources) at(i int) oracle.Source {
	if ts.forks != nil {
		return ts.forks[i]
	}
	return ts.shared
}

// releaser is implemented by forks that hold state worth dropping once
// their trial ends (oracle.CNFSource's solver); Release keeps the meter.
type releaser interface{ Release() }

// release drops trial i's fork state once the trial is done, so at most
// one solver per worker is alive.
func (ts trialSources) release(i int) {
	if r, ok := ts.at(i).(releaser); ok && ts.forks != nil {
		r.Release()
	}
}

// queriesSince returns the oracle calls consumed by the trials: the shared
// source's meter delta, or the sum over fork meters (forks start at zero).
func (ts trialSources) queriesSince(before int64) int64 {
	if ts.forks == nil {
		return ts.shared.Queries() - before
	}
	var total int64
	for _, f := range ts.forks {
		total += f.Queries()
	}
	return total
}

// trialTesters is the TrailingZeroTester analog of trialSources.
type trialTesters struct {
	shared oracle.TrailingZeroTester
	forks  []oracle.TrailingZeroTester
}

// newTrialTesters prepares per-trial testers, collapsing to a shared
// serial tester when tz cannot fork.
func newTrialTesters(tz oracle.TrailingZeroTester, t, workers int) (trialTesters, int) {
	if workers <= 1 || t <= 1 {
		return trialTesters{shared: tz}, 1
	}
	forks := make([]oracle.TrailingZeroTester, t)
	for i := range forks {
		fork, ok := oracle.ForkTrailingZeroTester(tz)
		if !ok {
			return trialTesters{shared: tz}, 1
		}
		forks[i] = fork
	}
	return trialTesters{forks: forks}, workers
}

// at returns trial i's tester.
func (tt trialTesters) at(i int) oracle.TrailingZeroTester {
	if tt.forks != nil {
		return tt.forks[i]
	}
	return tt.shared
}

// queriesSince mirrors trialSources.queriesSince.
func (tt trialTesters) queriesSince(before int64) int64 {
	if tt.forks == nil {
		return tt.shared.Queries() - before
	}
	var total int64
	for _, f := range tt.forks {
		total += f.Queries()
	}
	return total
}
