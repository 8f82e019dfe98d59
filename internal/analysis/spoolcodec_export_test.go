package analysis

// The spool codec's two hand halves, for the tests that count how often
// they decline (AppendSpoolRecord and DecodeSpoolLine hide that behind
// the encoding/json fallback).

// FastDecodeSpool is decodeSpoolFast into a fresh record: ok is false
// when line is outside its shape.
func FastDecodeSpool(line []byte) (*PageRecord, bool) { return decodeSpoolFast(line, nil) }

// FastEncodeSpool renders rec's line, without its newline, by hand; ok
// is false when a string of rec is not plain.
func FastEncodeSpool(rec *PageRecord) (line []byte, ok bool) {
	var e spoolEnc
	e.record(rec)
	return e.B, !e.Bad
}

// SkipIfRace is skipIfRace, for the allocation tests outside the
// package.
var SkipIfRace = skipIfRace
