package workload

// chunkLen is how many transactions one hand-off carries: large enough
// that starting a goroutine per chunk is noise next to the draws, small
// enough that the chunk in flight is a sliver of the live heap.
const chunkLen = 64

// Stream hands out the transaction load one transaction at a time, so a
// loader can schedule arrival i+1 from arrival i's event and a
// million-transaction run never materializes the whole load.
//
// The draws run one chunk ahead of the caller, the way the paper's
// Transaction Generator is a process of its own feeding the transaction
// manager: taking a chunk starts a one-shot goroutine that generates the
// next one while the caller consumes this one, and a channel hands the
// finished chunk back. The generator passes between the caller and that
// goroutine with the chunk, so one goroutine at a time draws, in the
// order Generate draws: the sequence is Generate's, transaction for
// transaction, at any GOMAXPROCS. An abandoned stream leaves at most one
// goroutine, which exits once its chunk is sent.
type Stream struct {
	// gen and ahead are shared with the chunk goroutine; everything
	// else belongs to the caller.
	gen   *generator
	ahead chan []*Txn
	count int
	// handed counts the transactions Next has returned.
	handed int
	cur    []*Txn
	pos    int
	// pending is set while a goroutine holds the generator.
	pending bool
}

// NewStream validates the parameters and positions the stream before
// the first arrival.
func NewStream(p Params) (*Stream, error) {
	g, err := newGenerator(p)
	if err != nil {
		return nil, err
	}
	return &Stream{gen: g, ahead: make(chan []*Txn, 1), count: p.Count}, nil
}

// Remaining reports how many transactions Next will still return.
func (s *Stream) Remaining() int { return s.count - s.handed }

// Next returns the next transaction, or nil once Count have been
// returned. Arrival times are non-decreasing.
func (s *Stream) Next() *Txn {
	if s.pos == len(s.cur) && !s.take() {
		return nil
	}
	t := s.cur[s.pos]
	s.pos++
	s.handed++
	return t
}

// take makes the next chunk current, waiting for the goroutine that
// generates it, or generating the first chunk in place. It then starts
// the goroutine for the chunk after, into the slots of the chunk just
// used up.
func (s *Stream) take() bool {
	spare := s.cur
	switch {
	case s.pending:
		s.cur = <-s.ahead
		s.pending = false
	case s.gen.made < s.count:
		s.cur = s.gen.fill(nil)
	default:
		return false
	}
	s.pos = 0
	if s.gen.made < s.count {
		s.pending = true
		go fillAhead(s.gen, spare, s.ahead)
	}
	return true
}

// fillAhead generates one chunk into buf's slots and sends it.
func fillAhead(g *generator, buf []*Txn, out chan<- []*Txn) {
	out <- g.fill(buf)
}

// fill generates the next chunk of up to chunkLen transactions into
// buf's backing array, growing it when too short.
func (g *generator) fill(buf []*Txn) []*Txn {
	n := min(chunkLen, g.p.Count-g.made)
	if cap(buf) < n {
		buf = make([]*Txn, chunkLen)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = g.next()
	}
	return buf
}
