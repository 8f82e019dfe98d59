package jsonshape

import "bytes"

// Indent appends src, one compact JSON value such as json.Marshal
// returns, to dst indented as json.Indent(dst, src, "", " ") indents it,
// and returns the extended buffer. It makes one pass that tracks only
// the depth and whether it is inside a string, copying each string as
// one run. It does not validate src: over input that is not compact
// valid JSON it never panics, but its bytes are unspecified.
func Indent(dst, src []byte) []byte {
	depth := 0
	opened := false // the last byte copied opened an object or array
	for i := 0; i < len(src); i++ {
		c := src[i]
		if opened && c != '}' && c != ']' {
			dst = newline(dst, depth)
		}
		switch c {
		case '{', '[':
			depth++
			dst = append(dst, c)
			opened = true
			continue
		case '}', ']':
			depth--
			if !opened { // json.Indent keeps an empty object or array on one line
				dst = newline(dst, depth)
			}
			dst = append(dst, c)
		case ',':
			dst = newline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		case '"':
			end := stringEnd(src, i+1)
			dst = append(dst, src[i:end]...)
			i = end - 1
		default:
			dst = append(dst, c)
		}
		opened = false
	}
	return dst
}

// stringEnd returns the index just past the quote closing the string
// whose body starts at i, or len(s) when it is not closed.
func stringEnd(s []byte, i int) int {
	for {
		q := bytes.IndexByte(s[i:], '"')
		if q < 0 {
			return len(s)
		}
		i += q + 1
		// The quote is escaped when an odd run of backslashes precedes it.
		bs := 0
		for j := i - 2; s[j] == '\\'; j-- {
			bs++
		}
		if bs%2 == 0 {
			return i
		}
	}
}

// newline appends a newline and depth spaces.
func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ')
	}
	return dst
}
