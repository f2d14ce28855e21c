// Package rawgo is a golden fixture for the raw-goroutine analyzer.
package rawgo

// Flagged: a goroutine outside the kernel baton protocol.
func fanOut(work []func()) {
	for _, w := range work {
		go w() // want "outside the kernel baton protocol"
	}
}

// Flagged: anonymous goroutines too.
func fire(done chan<- struct{}) {
	go func() { // want "outside the kernel baton protocol"
		done <- struct{}{}
	}()
}

// OK: deferred and direct calls are synchronous.
func sync(f func()) {
	defer f()
	f()
}
