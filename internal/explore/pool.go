package explore

import (
	"fmt"
	"runtime"
	"sync"
)

// RunBatch executes n jobs on up to `workers` goroutines (never more
// than GOMAXPROCS) and returns their values in input order, or the
// first error by job index. The job set and its order are decided by
// the caller before RunBatch starts, and results are index-addressed,
// so worker count (and OS scheduling) affect wall-clock time only —
// never which jobs run or how their results are observed. A panicking
// job is captured as that slot's error instead of tearing down the
// process. Zero jobs return nil.
//
// This file is the module's only goroutine spawn site outside the
// kernel and is listed in rtlint's raw-go allowlist; the schedule
// explorer and the experiment sweeps both run their jobs here.
func RunBatch[T any](n, workers int, job func(i int) (T, error)) ([]T, error) {
	return runBatch(n, workers, func(_, i int) (T, error) { return job(i) })
}

// runBatch is RunBatch with the worker slot passed to each job: w is in
// [0, workers) and no two jobs run on one slot at once, so a job may use
// state kept per slot, such as the explorer's rigs, without locking.
func runBatch[T any](n, workers int, job func(w, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = max(1, min(workers, n, runtime.GOMAXPROCS(0)))
	vals := make([]T, n)
	errs := make([]error, n)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				vals[i], errs[i] = guardedJob(w, i, job)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vals, nil
}

func guardedJob[T any](w, i int, job func(w, i int) (T, error)) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("explore: batch job %d panicked: %v", i, r)
		}
	}()
	return job(w, i)
}
