package colstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// SyncDir fsyncs a directory, making previously renamed/created entries
// in it durable.
//
// The rename-durability contract: writing a temp file, fsyncing it, and
// renaming it over the target makes the *contents* durable and the swap
// atomic against crashes of this process — but the rename itself lives
// in the parent directory's entry table, which the kernel is free to
// hold dirty in cache. On power loss after the rename but before the
// directory flushes, the directory can come back pointing at the old
// file, or at nothing. Every atomic publish (dataset exports, segment
// seals, the store manifest) therefore goes through WriteAtomic, which
// ends with SyncDir on the parent directory; only then may the caller
// treat the publish as durable — e.g. treat a seal as a commit, or
// report a dataset written.
//
// Each successful sync is counted in store.dir_syncs, which is also
// what the regression tests observe to prove the contract holds.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("colstore: sync dir %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("colstore: sync dir %s: %w", dir, err)
	}
	obs.StoreDirSyncs.Add(1)
	return nil
}

// WriteAtomic publishes a file: write into a temp file in the same
// directory, fsync it, rename it over path, then SyncDir the parent.
// Readers never observe a partial write, a crash cannot truncate an
// existing file, and the swap is durable once WriteAtomic returns. A
// failed write leaves the old file as it was and removes the temp file.
func WriteAtomic(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("colstore: atomic write %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("colstore: atomic write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("colstore: atomic write %s: sync: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("colstore: atomic write %s: close: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("colstore: atomic write %s: rename: %w", path, err)
	}
	return SyncDir(dir)
}
