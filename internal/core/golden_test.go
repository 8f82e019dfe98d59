package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// Digests of the study at the benchmark's size and default seed, as
// `go run ./bench --workload study` prints them ("# sha256 crawl0=…",
// "# sha256 report=…"). They have not moved since the benchmark was
// introduced; a change that claims byte identity must leave them alone,
// and one that means to change the dataset updates them here.
const (
	goldenSeed       = 20170419
	goldenPublishers = 150
	goldenPages      = 15
	goldenCrawl0     = "f6fa039cb222aa7b1ab4d30b0dd4ad882ea49455165e6d7957a7e7a79108560f"
	goldenReport     = "7c798ab5de383d274179e46eb0b310f9cf5281e145766e5831ca566465715776"
)

func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	study, err := RunStudy(context.Background(), Options{
		Seed: goldenSeed, NumPublishers: goldenPublishers, PagesPerSite: goldenPages, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var crawl0 bytes.Buffer
	if err := study.Results[0].Dataset.WriteJSON(&crawl0); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(crawl0.Bytes()); got != goldenCrawl0 {
		t.Errorf("crawl-0 dataset sha256 = %s, want %s", got, goldenCrawl0)
	}
	if got := sha256Hex([]byte(study.Report())); got != goldenReport {
		t.Errorf("report sha256 = %s, want %s", got, goldenReport)
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
