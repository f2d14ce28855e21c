// Package workload is a golden fixture for the raw-goroutine analyzer's
// shipped allowlist: this file's path ends in the allow-listed
// internal/workload/ahead.go, so its go statement is not flagged.
package workload

func fillAhead(fill func() []int, out chan<- []int) {
	go func() {
		out <- fill()
	}()
}
