package core

// Exclusive reports the row's exclusive-only lock semantics to the row
// oracles of package core_test.
func (r *ProtocolRow) Exclusive() bool { return r.exclusive }
