package script_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/script"
	"repro/internal/webgen"
)

// TestScratchDecodeMatchesDecode: programs decoded one after another
// into one scratch equal fresh Decode results, and decoding each next
// one leaves every earlier one as it was; after a Reset the scratch
// decodes them all the same again.
func TestScratchDecodeMatchesDecode(t *testing.T) {
	var bodies []string
	for _, lit := range decodeSeeds {
		bodies = append(bodies, wrap(strings.ReplaceAll(lit, "@", `\`)))
	}
	w := webgen.NewWorld(webgen.Config{Seed: 20170419, NumPublishers: 12})
	get := func(url string) {
		res, ok := w.GetURL(parseURL(t, url))
		if !ok {
			t.Fatalf("no script at %s", url)
		}
		bodies = append(bodies, string(res.Body))
	}
	for _, pub := range w.Publishers[:12] {
		for page := 0; page < 3; page++ {
			get(fmt.Sprintf("http://%s/js/app.js?pg=%d", pub.Domain, page))
			for _, u := range w.PlanFor(pub, page).DirectURLs {
				get(u)
			}
		}
	}

	var s script.Scratch
	for round := 0; round < 2; round++ {
		var kept, fresh []*script.Program
		for i, body := range bodies {
			got, gotErr := s.Decode(body)
			want, wantErr := script.Decode(body)
			if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, body %d: Scratch.Decode = %#v, %v; Decode %#v, %v", round, i, got, gotErr, want, wantErr)
			}
			kept, fresh = append(kept, got), append(fresh, want)
			for k := range kept {
				if !reflect.DeepEqual(kept[k], fresh[k]) {
					t.Fatalf("round %d: decoding body %d changed program %d to %#v", round, i, k, kept[k])
				}
			}
		}
		s.Reset()
	}
}
