package workload

// Flagged: the allowlist names one file of the package, not the package.
func fanOut(work []func()) {
	for _, w := range work {
		go w() // want "outside the kernel baton protocol"
	}
}
