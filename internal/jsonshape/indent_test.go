package jsonshape

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzIndentMatchesStdlib holds Indent to json.Indent(…, "", " ") over
// the compact form of every valid input, appending after existing bytes
// as the query service's pooled buffer does. Any input, valid or not,
// must not panic Indent.
func FuzzIndentMatchesStdlib(f *testing.F) {
	for _, s := range []string{
		`[]`, `{}`, `[{}]`, `{"a":[]}`, `[[],{},[[]],{"b":{}}]`,
		`0`, `"x"`, `true`, `null`,
		`{"a":1,"b":[true,false,null],"c":{"d":"e"}}`,
		`["\"", "a\"b", "\\", "a\\\"b", "ends\\"]`,
		`{"k\\":"v\\\\","\"":"\"\\"}`,
		`["\u003chtml\u003e","\u0026","\u2028\u2029","< >","{[,:]}"]`,
		`[1e5,-2.5E-3,0.1e+10,1E400,-0]`,
		` { "spaced" : [ 1 , 2 ] } `,
		`[{"a":[{"b":[{"c":[{"d":[{"e":[{"f":[]}]}]}]}]}]}]`,
		strings.Repeat("[", 70) + "1" + strings.Repeat("]", 70),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		_ = Indent(nil, in)
		var compact bytes.Buffer
		if json.Compact(&compact, in) != nil {
			return
		}
		src := compact.Bytes()
		var want bytes.Buffer
		want.WriteString("prior")
		if err := json.Indent(&want, src, "", " "); err != nil {
			t.Fatalf("json.Indent refused compacted %q: %v", src, err)
		}
		if got := Indent([]byte("prior"), src); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("Indent(%q)\n got %q\nwant %q", src, got, want.Bytes())
		}
	})
}
