// Package slab is the reusable per-visit storage of the browser: a Slab
// hands out values of one type from chunks it keeps across Reset, so a
// page load's DOM nodes, attribute lists, trace events and parsed URLs
// land in memory the previous page already paid for.
//
// A Slab is not safe for concurrent use. Everything it handed out is
// invalid after Reset: the owner orders Reset after the last reader of
// the values, the way browser.PageResult's contract does. Text, for
// strings that may outlive a visit, is the one exception: it never
// rewrites what it handed out.
package slab

// Chunk sizes, in elements. Chunks double from firstChunk; Reset keeps a
// chunk of at most maxKeptChunk elements and drops a larger one, which
// only a page far beyond the usual asks for, so that one page cannot pin
// its memory for the rest of a crawl.
const (
	firstChunk   = 32
	maxKeptChunk = 1024
)

// Slab hands out zero values of T from reused chunks. The zero value is
// an empty slab ready to use.
type Slab[T any] struct {
	chunks [][]T
	cur    int // the chunk being filled
	off    int // elements of chunks[cur] handed out
}

// New returns a pointer to a zero T.
func (s *Slab[T]) New() *T { return &s.Make(1)[0] }

// Make returns n contiguous zero Ts. The slice's capacity is n, so an
// append to it moves it off the slab instead of overwriting a neighbour.
func (s *Slab[T]) Make(n int) []T {
	for ; s.cur < len(s.chunks); s.cur, s.off = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.off+n <= len(c) {
			out := c[s.off : s.off+n : s.off+n]
			s.off += n
			return out
		}
	}
	size := firstChunk
	if k := len(s.chunks); k > 0 {
		size = 2 * len(s.chunks[k-1])
	}
	c := make([]T, max(size, n))
	s.chunks = append(s.chunks, c)
	s.cur, s.off = len(s.chunks)-1, n
	return c[:n:n]
}

// Reset takes back everything handed out. It zeroes what was used, so
// the slab holds no references into the last page, and drops chunks
// larger than maxKeptChunk.
func (s *Slab[T]) Reset() {
	kept := s.chunks[:0]
	for i, c := range s.chunks {
		switch {
		case i < s.cur:
			clear(c)
		case i == s.cur:
			clear(c[:s.off])
		}
		if len(c) <= maxKeptChunk {
			kept = append(kept, c)
		}
	}
	clear(s.chunks[len(kept):])
	s.chunks = kept
	s.cur, s.off = 0, 0
}
