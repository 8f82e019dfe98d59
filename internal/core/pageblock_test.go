package core

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/crawler"
)

// TestRecordsSurvivePageBlock crawls crawl 0 at fixed seeds without
// faults and under the flaky and torn profiles, and requires every
// record the recorder makes to equal what its page block decodes to. A
// local crawl's ledger takes the records as they are and a fabric
// coordinator's takes them from their blocks, so this is what makes the
// two roles fold the same records, under faults the fabric's own tests
// do not run. Under flaky at this fault seed some records differ from
// the fault-free crawl's, so fault-shaped records are among those
// checked; torn writes reassemble to the same records, and are slow, so
// that row crawls a smaller world.
func TestRecordsSurvivePageBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls three worlds")
	}
	clean := map[string]bool{} // the fault-free crawl's records, as JSON
	for _, row := range []struct {
		profile    string
		publishers int
	}{{"", 40}, {"flaky", 40}, {"torn", 8}} {
		t.Run("faults="+row.profile, func(t *testing.T) {
			plane, err := newPagePlane(FabricCrawlConfig(Options{
				Seed: 20170419, NumPublishers: row.publishers, PagesPerSite: 3,
				FaultProfile: row.profile, FaultSeed: 1,
			}, DefaultCrawls()[0]), 4)
			if err != nil {
				t.Fatal(err)
			}
			defer plane.Close()
			var mu sync.Mutex
			records, sockets, shaped := 0, 0, 0
			var stats crawler.Stats
			_, _, err = plane.runGrant(context.Background(), plane.sites, &stats, func(site string, rec *analysis.PageRecord) error {
				got, err := colstore.DecodePageBlock(colstore.AppendPageBlock(nil, rec))
				line, _ := json.Marshal(rec)
				mu.Lock()
				defer mu.Unlock()
				records++
				sockets += len(rec.Sockets)
				if row.profile == "" {
					clean[string(line)] = true
				} else if !clean[string(line)] {
					shaped++
				}
				if err != nil || !reflect.DeepEqual(got, rec) {
					t.Errorf("%s: the page block decodes to %+v, %v; want %+v", rec.PageURL, got, err, rec)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d records (%d sockets), %d unlike the fault-free crawl's", records, sockets, shaped)
			if records < 20 || sockets == 0 || row.profile == "flaky" && shaped == 0 {
				t.Errorf("crawl too quiet: %d records, %d sockets, %d shaped by faults", records, sockets, shaped)
			}
		})
	}
}
