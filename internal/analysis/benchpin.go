package analysis

// This file exists only so bench/ compiles unchanged until ROADMAP 1(b)
// replaces bench's hand-built twin of the page path with the product's
// own spans; 1(b) deletes it. Nothing outside bench/ may use what it
// declares (TestBenchPinsStayInBench).

import (
	"io"
	"sync"
)

// lineBufs pools EncodeSpoolRecord's line buffers.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// EncodeSpoolRecord writes rec as one spool line (AppendSpoolRecord) to
// w, through a pooled buffer.
func EncodeSpoolRecord(w io.Writer, rec *PageRecord) error {
	bp := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(bp)
	line, err := AppendSpoolRecord((*bp)[:0], rec)
	*bp = line
	if err != nil {
		return err
	}
	_, err = w.Write(line)
	return err
}
