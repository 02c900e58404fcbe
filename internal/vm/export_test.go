package vm

import "pathprof/internal/vm/compile"

// Interp returns opts with the reference interpreter (interp_test.go)
// as the executor of every run and replica built from them. The engine
// still compiles and translation-validates the program; only the code
// that executes it changes, so a test can run the same options through
// both executors and compare everything they observe.
func Interp(opts Options) Options {
	opts.newExec = newInterp
	return opts
}

// RunTraced is Run that also returns the hot-path trace formations of
// the run's executor.
func (e *Engine) RunTraced() (*Result, compile.TraceStats, error) {
	b, err := e.bind(e.opts.Sink, e.opts.MetricsWorker, e.opts.PathHook)
	if err != nil {
		return nil, compile.TraceStats{}, err
	}
	res, err := b.run(e.opts.Args)
	return res, b.x.(*compile.Exec).TraceStats(), err
}
