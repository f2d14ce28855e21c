package rawgo

// This file is on the test's spawn allowlist, mirroring
// internal/sim/proc.go: its go statement must not be flagged.
func startWorker(baton chan struct{}, body func()) {
	go func() {
		body()
		<-baton
	}()
}
