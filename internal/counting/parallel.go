package counting

// This file holds the per-trial oracle handles of the median-trial loops.
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
//   - oracle state: every handle forks, and every trial gets its own fork
//     at every parallelism (each fork meters its own queries, summed back
//     into the result, and is released when its trial ends).

// handle is what every oracle handle has: a query meter.
type handle interface{ Queries() int64 }

// trialForks returns one fresh handle per trial, so a trial's oracle
// state (and with it the query meter, which depends on the solver's
// history) is a function of that trial alone.
func trialForks[H handle](t int, fork func() H) []H {
	hs := make([]H, t)
	for i := range hs {
		hs[i] = fork()
	}
	return hs
}

// queries sums the handles' meters; forks start at zero.
func queries[H handle](hs []H) int64 {
	var total int64
	for _, h := range hs {
		total += h.Queries()
	}
	return total
}

// releaser is implemented by forks that hold state worth dropping once
// their trial ends (oracle.CNFSource's solver); Release keeps the meter.
type releaser interface{ Release() }

// release drops a finished trial's fork state, so at most one solver per
// worker is alive.
func release(h handle) {
	if r, ok := h.(releaser); ok {
		r.Release()
	}
}
