package analysis

// This file exists only so bench/ compiles unchanged until ROADMAP 1(b)
// replaces bench's hand-built twin of the page path with the product's
// own spans; 1(b) deletes it. Nothing outside bench/ may use what it
// declares (TestBenchPinsStayInBench).

import (
	"encoding/json"
	"fmt"
	"io"
)

// EncodeSpoolRecord writes rec to w as one spool line: its encoding/json
// form and a newline.
func EncodeSpoolRecord(w io.Writer, rec *PageRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("analysis: encode spool record: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
