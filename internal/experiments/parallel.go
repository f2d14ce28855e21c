package experiments

import (
	"fmt"
	"runtime"
	"sync"
)

// collectRuns executes fn for every run index concurrently (each run
// builds its own kernel, so runs are independent) and returns the
// outcomes in run order, preserving determinism of every aggregate.
// The first error (by run index) wins. A panicking run is surfaced as
// an error carrying its run index instead of crashing the sweep.
func collectRuns(runs int, fn func(r int) (outcome, error)) ([]outcome, error) {
	if runs <= 0 {
		return nil, nil
	}
	out := make([]outcome, runs)
	errs := make([]error, runs)
	workers := min(runtime.GOMAXPROCS(0), runs)
	var wg sync.WaitGroup
	// Buffered to capacity: the feeder below can never block, so a
	// worker dying early cannot strand it (with an unbuffered channel a
	// lost worker would deadlock the whole sweep).
	next := make(chan int, runs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				runOne(r, fn, out, errs)
			}
		}()
	}
	for r := 0; r < runs; r++ {
		next <- r
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runOne executes a single run, converting a panic into an error that
// names the run index.
func runOne(r int, fn func(r int) (outcome, error), out []outcome, errs []error) {
	defer func() {
		if p := recover(); p != nil {
			errs[r] = fmt.Errorf("experiments: run %d panicked: %v", r, p)
		}
	}()
	out[r], errs[r] = fn(r)
}
