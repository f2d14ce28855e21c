package rtlock

// Public surface of the deterministic replay journal and the invariant
// auditors. The journal records every kernel-level event of a run as
// compact structured records keyed by (seed, config hash); its canonical
// binary encoding is byte-identical across repeated runs of the same
// configuration, so comparing hashes *is* the determinism proof. The
// auditors consume a journal and verify protocol invariants (strict two
// phases, lock compatibility, deadlock freedom, PCP blocked-at-most-once,
// 2PC vote consistency, conflict serializability).

import (
	"fmt"
	"io"

	"rtlock/internal/audit"
	"rtlock/internal/core"
	"rtlock/internal/journal"
)

type (
	// Journal is a deterministic replay journal of one run.
	Journal = journal.Journal
	// JournalRecord is one journal event.
	JournalRecord = journal.Record
	// JournalKind tags a journal record's event type.
	JournalKind = journal.Kind
	// Auditor is a streaming protocol-invariant checker.
	Auditor = audit.Auditor
	// Violation is one invariant violation found by an auditor.
	Violation = audit.Violation
)

// DecodeJournalJSONL reads a journal previously written with
// Journal.EncodeJSONL.
func DecodeJournalJSONL(r io.Reader) (*Journal, error) { return journal.DecodeJSONL(r) }

// JournalsEqual reports record-for-record identity of two journals
// (including seed and config hash).
func JournalsEqual(a, b *Journal) bool { return journal.Equal(a, b) }

// JournalDiff describes the first divergence between two journals, for
// diagnostics when JournalsEqual is false.
func JournalDiff(a, b *Journal) string { return journal.Diff(a, b) }

// AuditJournal replays a journal through the given auditors and returns
// every violation found, ordered by journal sequence.
func AuditJournal(j *Journal, auds ...Auditor) []Violation { return audit.Run(j, auds...) }

// CompareCommitSets returns the transactions committed in exactly one of
// the two journals — the cross-architecture consistency check of the
// distributed experiments.
func CompareCommitSets(a, b *Journal) (onlyA, onlyB []int64) {
	return audit.CompareCommitSets(a, b)
}

// AuditorsForProtocol returns the invariant auditors applicable to a
// single-site run of the protocol (empty Protocol means Ceiling, as in
// RunSingleSite): the ones that check what its table row promises.
func AuditorsForProtocol(p Protocol) ([]Auditor, error) {
	if p == "" {
		p = Ceiling
	}
	row, err := core.Lookup(p)
	if err != nil {
		return nil, fmt.Errorf("rtlock: %w", err)
	}
	return audit.ForManager(row.Name), nil
}

// AuditorsForDistributed returns the invariant auditors applicable to a
// distributed run under the global or local ceiling architecture.
func AuditorsForDistributed(global bool) []Auditor {
	if global {
		return audit.ForPlacement("global")
	}
	return audit.ForPlacement("local")
}
