package vm

// Interp returns opts with the reference interpreter (interp_test.go)
// as the executor of every run and replica built from them. The engine
// still compiles and translation-validates the program; only the code
// that executes it changes, so a test can run the same options through
// both executors and compare everything they observe.
func Interp(opts Options) Options {
	opts.newExec = newInterp
	return opts
}
