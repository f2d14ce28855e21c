package core

import (
	"fmt"

	"rtlock/internal/sim"
)

// Protocol names a concurrency-control protocol by the paper's letter.
type Protocol string

// The letters of the study, one per row of Protocols.
const (
	ProtoCeiling   Protocol = "C"  // the priority ceiling protocol (§3.2)
	ProtoTwoPLPrio Protocol = "P"  // two-phase locking with priority mode
	ProtoTwoPL     Protocol = "L"  // two-phase locking without priority mode
	ProtoInherit   Protocol = "PI" // 2PL with basic priority inheritance (§3.1)
	ProtoCeilingX  Protocol = "CX" // the ceiling protocol with exclusive-only locks (§5 ablation)
	ProtoTwoPLHP   Protocol = "HP" // 2PL with High-Priority wounding ([Abb88])
	ProtoTwoPLDD   Protocol = "DD" // 2PL with waits-for deadlock detection; victims restart
	ProtoTimestamp Protocol = "TO" // basic timestamp ordering, the non-locking control
	ProtoTwoPLCR   Protocol = "CR" // 2PL with conditional restart ([Abb88])
)

// ProtocolRow is one protocol of the study: how it is named, built and
// scheduled, and what it promises. Everything else that needs to know
// which protocols exist — the experiment harness, the auditor selection,
// the facade, the command line, the tests — reads Protocols.
type ProtocolRow struct {
	Letter Protocol
	// Name is the Manager.Name() of the row's manager; it keys the
	// auditor selection.
	Name string
	// Discipline is the CPU discipline the protocol runs under.
	Discipline sim.Discipline

	// The promises, each checked by its auditors on every audited run:
	// HoldsLocks (strict two-phase locking and lock safety; timestamp
	// ordering holds none), DeadlockFree, and BlockedOnce (at most one
	// lower-priority transaction ever blocks a given one).
	HoldsLocks, DeadlockFree, BlockedOnce bool

	family    func(*sim.Kernel, *ProtocolRow) Manager
	lock      lockRule // lock-table family
	exclusive bool     // ceiling family: no read sharing
}

// New builds the row's lock manager on k.
func (r *ProtocolRow) New(k *sim.Kernel) Manager { return r.family(k, r) }

func lockTableFamily(k *sim.Kernel, r *ProtocolRow) Manager { return newTwoPL(k, r) }
func ceilingFamily(k *sim.Kernel, r *ProtocolRow) Manager   { return newCeiling(k, r) }
func timestampFamily(k *sim.Kernel, r *ProtocolRow) Manager { return newTimestamp(k, r) }

// Protocols is the protocol table, in the order the figures and
// `explore -all` list the protocols. Adding a protocol is one row here
// (plus its golden journal, and an auditor only if it promises something
// new). L runs on a FIFO processor, the rest under preemptive priority.
var Protocols = []ProtocolRow{
	{Letter: ProtoCeiling, Name: "PCP", Discipline: sim.PreemptivePriority, family: ceilingFamily,
		HoldsLocks: true, DeadlockFree: true, BlockedOnce: true},
	{Letter: ProtoTwoPLPrio, Name: "2PL-P", Discipline: sim.PreemptivePriority, family: lockTableFamily,
		HoldsLocks: true},
	{Letter: ProtoTwoPL, Name: "2PL", Discipline: sim.FIFO, family: lockTableFamily,
		HoldsLocks: true, lock: lockRule{fifo: true}},
	{Letter: ProtoInherit, Name: "2PL-PI", Discipline: sim.PreemptivePriority, family: lockTableFamily,
		HoldsLocks: true, lock: lockRule{inherit: true}},
	{Letter: ProtoCeilingX, Name: "PCP-X", Discipline: sim.PreemptivePriority, family: ceilingFamily,
		HoldsLocks: true, DeadlockFree: true, BlockedOnce: true, exclusive: true},
	{Letter: ProtoTwoPLHP, Name: "2PL-HP", Discipline: sim.PreemptivePriority, family: lockTableFamily,
		HoldsLocks: true, DeadlockFree: true, lock: lockRule{wound: woundLower}},
	{Letter: ProtoTwoPLDD, Name: "2PL-DD", Discipline: sim.PreemptivePriority, family: lockTableFamily,
		HoldsLocks: true, lock: lockRule{detect: true}},
	{Letter: ProtoTimestamp, Name: "TO", Discipline: sim.PreemptivePriority, family: timestampFamily},
	{Letter: ProtoTwoPLCR, Name: "2PL-CR", Discipline: sim.PreemptivePriority, family: lockTableFamily,
		HoldsLocks: true, lock: lockRule{wound: woundNoSlack}},
}

// row returns the row of a letter, nil when there is none.
func row(p Protocol) *ProtocolRow {
	for i := range Protocols {
		if Protocols[i].Letter == p {
			return &Protocols[i]
		}
	}
	return nil
}

// RowNamed returns the row whose manager is called name, nil when there
// is none.
func RowNamed(name string) *ProtocolRow {
	for i := range Protocols {
		if Protocols[i].Name == name {
			return &Protocols[i]
		}
	}
	return nil
}

// Lookup returns the row of a letter; the error for an unknown letter
// lists the table's.
func Lookup(p Protocol) (*ProtocolRow, error) {
	if r := row(p); r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("unknown protocol %q (want one of %s)", p, LetterList())
}

// Letters returns the table's letters in row order.
func Letters() []Protocol {
	var out []Protocol
	for _, r := range Protocols {
		out = append(out, r.Letter)
	}
	return out
}

// LetterList renders the letters as "C|P|L|…" for help and error text.
func LetterList() string {
	list := ""
	for _, r := range Protocols {
		list += "|" + string(r.Letter)
	}
	return list[1:]
}
