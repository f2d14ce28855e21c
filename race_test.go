//go:build race

package rtlock

// The race detector makes sync.Pool drop a random share of Puts, so
// pooled buffers are not reliably reused and byte budgets that assume
// reuse do not hold.
func init() { raceBuild = true }
