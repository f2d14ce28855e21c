package dist

// slab carves values of one kind from chunks it never reuses: what it
// hands out stays as written for as long as anything holds it, and the
// collector reclaims a chunk once nothing does. A message body carved
// here boxes into netsim.Message.Payload as a pointer, which costs no
// allocation, and a duplicated, late or dropped copy of a message can
// never see another message's content. Chunks start small and double,
// so a run of a few dozen transactions pays for a few small chunks, not
// for a full one per kind.
type slab[T any] struct {
	// free is the current chunk's uncarved front. Values are carved from
	// its back, so its capacity stays the chunk's length.
	free []T
}

// The first chunk's length and the largest.
const slabMin, slabMax = 4, 64

// take carves n contiguous zero values, capped at n. A request that
// does not fit the next chunk gets a slice of its own.
func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		size := min(max(2*cap(s.free), slabMin), slabMax)
		if n > size {
			return make([]T, n)
		}
		s.free = make([]T, size)
	}
	i := len(s.free) - n
	v := s.free[i : i+n : i+n]
	s.free = s.free[:i]
	return v
}

// new carves one value holding v.
func (s *slab[T]) new(v T) *T {
	p := &s.take(1)[0]
	*p = v
	return p
}

// bodies are a cluster's slabs: one per message kind on the hot path,
// and one for the write sets install messages carry.
type bodies struct {
	qread    slab[qreadMsg]
	qreply   slab[qreadReply]
	qwrite   slab[qwriteMsg]
	qack     slab[qackMsg]
	prepare  slab[prepareMsg]
	vote     slab[voteMsg]
	decision slab[decisionMsg]
	install  slab[installMsg]
	writes   slab[replicaWrite]
}
