package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
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

// goldenStore is the sha256 of a fault-free crawl's store directory —
// every file's name and bytes, in name order: store.json and each
// sealed segment. One crawl worker fixes the page order, so the bytes
// repeat; a change that claims the segment and manifest formats held
// must leave it alone.
const goldenStore = "3cba1a6f9fd13c36990da0000c3df08a791fd493e1b63140182becc1576c5b94"

func TestGoldenStoreBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls 60 publishers")
	}
	dir := filepath.Join(t.TempDir(), "store")
	_, err := RunCrawl(context.Background(), Options{
		Seed: goldenSeed, NumPublishers: 60, PagesPerSite: 4, Workers: 1,
		Dispatch: &DispatchOptions{StoreDir: dir},
	}, DefaultCrawls()[1])
	if err != nil {
		t.Fatal(err)
	}
	if got, names := storeDigest(t, dir); got != goldenStore {
		t.Errorf("store sha256 = %s over %d files %v, want %s", got, len(names), names, goldenStore)
	}
}

// storeDigest is the sha256 of a store directory — every file's name and
// bytes, in name order — and the names.
func storeDigest(t *testing.T, dir string) (string, []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), names
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
