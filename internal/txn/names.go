package txn

import "strconv"

// namesChunk is how many consecutive ids share one built string.
const namesChunk = 64

// Names hands out the journal-only names of processes numbered by an
// id, prefix + id + suffix ("tx12", "install-12@2"). It builds one
// string for each chunk of 64 consecutive ids and slices every name of
// the chunk out of it, keeping the current chunk and its offsets for
// as long as the Names lives, across runs. A rig that reruns one small
// load builds no name, and a fresh run pays one allocation per 64
// names taken in id order.
type Names struct {
	prefix, suffix string
	// chunk holds the names of the ids from base to base+63, back to
	// back; the name of base+i ends at ends[i]. chunk is "" until the
	// first name is taken.
	chunk string
	base  int64
	ends  [namesChunk]uint32
}

// NewNames returns the Names of prefix + id + suffix.
func NewNames(prefix, suffix string) Names { return Names{prefix: prefix, suffix: suffix} }

// Name returns the name of id, building its chunk first unless it is
// the current one.
func (n *Names) Name(id int64) string {
	base := id &^ (namesChunk - 1)
	if n.chunk == "" || base != n.base {
		n.build(base)
	}
	i := id - base
	start := uint32(0)
	if i > 0 {
		start = n.ends[i-1]
	}
	return n.chunk[start:n.ends[i]]
}

// build makes the chunk starting at base current. The names are
// written into a buffer on the stack, which holds 64 names of up to 32
// bytes ("install-" and an 11-digit id at site 999 take 23), and copied
// out once.
func (n *Names) build(base int64) {
	var stack [2048]byte
	b := stack[:0]
	for i := range int64(namesChunk) {
		b = append(b, n.prefix...)
		b = strconv.AppendInt(b, base+i, 10)
		b = append(b, n.suffix...)
		n.ends[i] = uint32(len(b))
	}
	n.chunk, n.base = string(b), base
}
