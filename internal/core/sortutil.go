package core

// Typed insertion sorts for the managers' hot-path orderings. The
// slices involved — blamed-holder sets, per-object waiter queues, the
// ceiling manager's blocked list — are small and usually nearly sorted
// (queues are re-ordered after single insertions or priority moves), a
// regime where insertion sort beats sort.Slice while also avoiding its
// per-call closure allocation and reflect-based swapper. All keys below
// are strict total orders (transaction ids and waiter sequence numbers
// are unique), so stability is preserved trivially.

// sortTxByID orders a blamed-holder set by transaction id.
func sortTxByID(s []*TxState) {
	for i := 1; i < len(s); i++ {
		t := s[i]
		j := i - 1
		for j >= 0 && s[j].ID > t.ID {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = t
	}
}

// waiterAfter reports whether a orders strictly after b: lower effective
// priority first loses, ties break toward the smaller sequence number.
func waiterAfter(a, b *lockWaiter) bool {
	if a.tx.Eff() != b.tx.Eff() {
		return b.tx.Eff().Higher(a.tx.Eff())
	}
	return a.seq > b.seq
}

// sortWaitersByPrio orders a waiter queue by effective priority, ties by
// sequence number.
func sortWaitersByPrio(q []*lockWaiter) {
	for i := 1; i < len(q); i++ {
		w := q[i]
		j := i - 1
		for j >= 0 && waiterAfter(q[j], w) {
			q[j+1] = q[j]
			j--
		}
		q[j+1] = w
	}
}

// sortWaitersBySeq orders a waiter queue FIFO by sequence number.
func sortWaitersBySeq(q []*lockWaiter) {
	for i := 1; i < len(q); i++ {
		w := q[i]
		j := i - 1
		for j >= 0 && q[j].seq > w.seq {
			q[j+1] = q[j]
			j--
		}
		q[j+1] = w
	}
}
