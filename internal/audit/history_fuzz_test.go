package audit

// Fuzzing for the serializability checker: arbitrary operation
// sequences must never panic the checker, repeated checks must agree,
// and for small histories the precedence-graph verdict must match a
// brute-force search over all serial orders.

import (
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/sim"
)

// decodeOps turns fuzz bytes into a small operation sequence: each
// 3-byte group is (tx, obj, mode), recorded at strictly increasing
// times so the recorded order is the time order.
func decodeOps(data []byte) []histOp {
	var ops []histOp
	for i := 0; i+2 < len(data) && len(ops) < 64; i += 3 {
		mode := core.Read
		if data[i+2]&1 == 1 {
			mode = core.Write
		}
		ops = append(ops, histOp{
			Tx:   int64(data[i] % 5),
			Obj:  core.ObjectID(data[i+1] % 8),
			Mode: mode,
			At:   sim.Time(i),
		})
	}
	return ops
}

// bruteSerializable is an independent oracle: it tries every serial
// order of the committed transactions and reports whether one is
// consistent with all conflict pairs in the recorded order.
func bruteSerializable(ops []histOp, committed map[int64]bool) bool {
	var txs []int64
	seen := make(map[int64]bool)
	for _, op := range ops {
		if committed[op.Tx] && !seen[op.Tx] {
			seen[op.Tx] = true
			txs = append(txs, op.Tx)
		}
	}
	ok := false
	permute(txs, 0, func(order []int64) {
		if ok {
			return
		}
		pos := make(map[int64]int, len(order))
		for i, tx := range order {
			pos[tx] = i
		}
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				a, b := ops[i], ops[j]
				if a.Tx == b.Tx || a.Obj != b.Obj ||
					!committed[a.Tx] || !committed[b.Tx] ||
					(a.Mode == core.Read && b.Mode == core.Read) {
					continue
				}
				if pos[a.Tx] > pos[b.Tx] {
					return
				}
			}
		}
		ok = true
	})
	return ok || len(txs) == 0
}

func permute(xs []int64, i int, visit func([]int64)) {
	if i == len(xs) {
		visit(xs)
		return
	}
	for j := i; j < len(xs); j++ {
		xs[i], xs[j] = xs[j], xs[i]
		permute(xs, i+1, visit)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func FuzzHistory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 2, 1, 1})                   // w1(1) w2(1): serial
	f.Add([]byte{1, 1, 1, 2, 1, 1, 1, 2, 0, 2, 2, 1}) // cross conflicts
	f.Add([]byte{0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1}) // classic cycle shape
	f.Add([]byte{3, 7, 0, 4, 7, 0, 3, 7, 0})          // read-only: no conflicts
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		h := newHistory()
		committed := make(map[int64]bool)
		for _, op := range ops {
			h.Record(op.Tx, op.Obj, op.Mode, op.At)
			committed[op.Tx] = true
		}
		for tx := range committed {
			h.Commit(tx)
		}
		got := h.ConflictSerializable()
		if again := h.ConflictSerializable(); again != got {
			t.Fatalf("checker not idempotent: %t then %t", got, again)
		}
		if want := bruteSerializable(ops, committed); got != want {
			t.Fatalf("precedence graph says %t, brute force says %t for %+v", got, want, ops)
		}
	})
}
