package jsonshape

import (
	"strings"
	"testing"
)

// The Cursor is generic over its input; every table runs over both
// instantiations the codecs use, a string and a []byte.
func TestCursorOverString(t *testing.T) { testCursor(t, func(s string) string { return s }) }
func TestCursorOverBytes(t *testing.T)  { testCursor(t, func(s string) []byte { return []byte(s) }) }

func testCursor[S ~string | ~[]byte](t *testing.T, in func(string) S) {
	t.Run("Str", func(t *testing.T) {
		for _, c := range []struct {
			in, want string
			ok       bool
			rest     int // bytes left unread after a successful Str
		}{
			{`"abc"`, "abc", true, 0},
			{`""`, "", true, 0},
			{`"abc",1`, "abc", true, 2},
			{"\" ~\"", " ~", true, 0},         // the first and last plain bytes
			{`"a&b<c>d"`, "a&b<c>d", true, 0}, // read verbatim, though json writes them escaped
			{`"\u0026"`, "&", true, 0},        // the three escapes
			{`"\u003c"`, "<", true, 0},
			{`"\u003e"`, ">", true, 0},
			{`"a\u0026b\u003cc\u003ed"`, "a&b<c>d", true, 0},
			{"\"\x1f\"", "", false, 0}, // control byte below the plain range
			{"\"\x7f\"", "", false, 0}, // DEL above it
			{"\"é\"", "", false, 0},
			{`"\n"`, "", false, 0},
			{`"\u0041"`, "", false, 0}, // an escape json would not write
			{`"\u0026`, "", false, 0},
			{`"\u00"`, "", false, 0},
			{`"\"`, "", false, 0},
			{`"abc`, "", false, 0},
			{`abc"`, "", false, 0},
			{``, "", false, 0},
		} {
			cur := Cursor[S]{S: in(c.in)}
			var got string
			ok := cur.Str(&got, nil)
			if ok != c.ok || ok && (got != c.want || len(cur.S)-cur.I != c.rest) {
				t.Errorf("Str(%q) = %q, %v, %d left; want %q, %v, %d left", c.in, got, ok, len(cur.S)-cur.I, c.want, c.ok, c.rest)
			}
		}
	})

	t.Run("Int", func(t *testing.T) {
		for _, c := range []struct {
			in   string
			want int
			ok   bool
		}{
			{"0", 0, true},
			{"7", 7, true},
			{"-1", -1, true},
			{"123456789012345678", 123456789012345678, true}, // 18 digits
			{"-123456789012345678", -123456789012345678, true},
			{"1234567890123456789", 0, false}, // 19 digits
			{"-0", 0, false},
			{"01", 0, false},
			{"-012", 0, false},
			{"+1", 0, false},
			{"-", 0, false},
			{"", 0, false},
			{"x", 0, false},
		} {
			cur := Cursor[S]{S: in(c.in)}
			got := -42
			ok := cur.Int(&got)
			if ok != c.ok || ok && (got != c.want || !cur.Done()) {
				t.Errorf("Int(%q) = %d, %v; want %d, %v", c.in, got, ok, c.want, c.ok)
			}
		}
		// An int ends at its last digit; what follows is the shape's.
		cur := Cursor[S]{S: in("12}")}
		var n int
		if !cur.Int(&n) || n != 12 || !cur.Lit("}") || !cur.Done() {
			t.Errorf(`Int("12}") = %d, then %d of 3 bytes read`, n, cur.I)
		}
	})

	t.Run("Hint", func(t *testing.T) {
		commas := func(n int) string { return strings.Repeat("1,", n-1) + "1]" }
		for _, c := range []struct {
			in   string // what follows the opening bracket
			want int
		}{
			{"]", 1},
			{"1]", 1},
			{"1,2,3]", 3},
			{`"a,b",2]`, 2},       // a comma inside a string is not a member's
			{"[1,2],{3:4},5]", 3}, // nor one inside a nested value
			{commas(31), 31},
			{commas(32), 32},
			{commas(33), 32}, // capped
			{commas(1000), 32},
			{strings.Repeat(",", 100000), 32},
		} {
			cur := Cursor[S]{S: in(c.in)}
			if got := cur.Hint(); got != c.want {
				t.Errorf("Hint(%.40q) = %d, want %d", c.in, got, c.want)
			}
			if cur.I != 0 {
				t.Errorf("Hint(%.40q) moved the cursor to %d", c.in, cur.I)
			}
		}
		// List sizes from the capped hint and grows past it.
		cur := Cursor[S]{S: in(commas(40))}
		got, ok := List(&cur, nil, cur.Int)
		if !ok || len(got) != 40 || !cur.Done() {
			t.Errorf("List over 40 ints = %d members, %v", len(got), ok)
		}
		cur = Cursor[S]{S: in(commas(1000))}
		if got, ok := List(&cur, nil, func(*int) bool { return false }); ok || got != nil {
			t.Errorf("List whose member fails = %v, %v; want nil, false", got, ok)
		}
	})
}

// TestStrCopiesBytes: over a []byte, Str hands out a copy, so a decoded
// string keeps no part of the input alive or changing under it.
func TestStrCopiesBytes(t *testing.T) {
	in := []byte(`"abc"`)
	cur := Cursor[[]byte]{S: in}
	var s string
	if !cur.Str(&s, nil) {
		t.Fatal("Str refused a plain string")
	}
	in[1] = 'X'
	if s != "abc" {
		t.Errorf("Str's string changed with its input: %q", s)
	}
}

// TestWriterMatchesCursor: what Writer writes, both Cursors read back,
// and a string that is not plain marks the Writer bad.
func TestWriterMatchesCursor(t *testing.T) {
	for _, s := range []string{"", "abc", " ~", "a&b<c>d", "&&<<>>"} {
		var w Writer
		w.Str("", s)
		if w.Bad {
			t.Errorf("Str(%q) marked bad", s)
			continue
		}
		var fromString, fromBytes string
		cs, cb := Cursor[string]{S: string(w.B)}, Cursor[[]byte]{S: w.B}
		if !cs.Str(&fromString, nil) || !cb.Str(&fromBytes, nil) || fromString != s || fromBytes != s {
			t.Errorf("Str(%q) wrote %s, read back %q and %q", s, w.B, fromString, fromBytes)
		}
	}
	for _, s := range []string{"\x1f", "\x7f", "é", `"`, `\`} {
		var w Writer
		if w.Str("", s); !w.Bad {
			t.Errorf("Str(%q) wrote %s, want it marked bad", s, w.B)
		}
	}
	for _, n := range []int{0, 7, -1, 123456789012345678, -123456789012345678} {
		var w Writer
		w.Int("", n)
		cur := Cursor[[]byte]{S: w.B}
		var got int
		if !cur.Int(&got) || got != n || !cur.Done() {
			t.Errorf("Int(%d) wrote %s, read back %d", n, w.B, got)
		}
	}
}
