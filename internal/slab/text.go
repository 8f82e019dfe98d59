package slab

import "unsafe"

// textChunk is the size of a Text chunk, in bytes. A string longer than
// a quarter of it gets an allocation of its own rather than a chunk.
const textChunk = 2048

// Text builds strings in chunks it never rewrites. It is the exception
// to the package rule: a string cut from a visit's bytes may be held
// past the visit — a link in a crawler's frontier — so Text has no
// Reset. A chunk is dropped once full and lives on for as long as any
// string in it is held; until then every string built in it shares its
// one allocation. The zero value is ready to use; a Text is not safe for
// concurrent use.
type Text struct {
	free []byte // the current chunk's unused tail
}

// Grow returns an empty slice with room for n bytes, to append one
// string's bytes to before Take makes the string of them.
func (t *Text) Grow(n int) []byte {
	if cap(t.free) < n {
		if n > textChunk/4 {
			return make([]byte, 0, n)
		}
		t.free = make([]byte, 0, textChunk)
	}
	return t.free[:0]
}

// Take returns b — Grow's slice with the string's bytes appended — as a
// string without copying it, and keeps those bytes out of every later
// Grow. An append past Grow's room moved b off the chunk; it is then a
// string of its own.
func (t *Text) Take(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if cap(t.free) >= len(b) && &b[0] == &t.free[:1][0] {
		t.free = t.free[len(b):len(b)]
	}
	return unsafe.String(&b[0], len(b))
}
