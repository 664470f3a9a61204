package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem seam the log writes through. Production code uses
// OSFS; the crash-injection harness (MemFS) implements the same interface
// with an operation budget, torn writes and explicit fsync semantics, so
// every durability claim the package makes is testable by simulating a
// kill -9 at any write/sync/rename boundary.
//
// The interface is deliberately tiny — exactly the operations the log's
// crash-safety argument depends on. Paths are plain strings; OSFS treats
// them as OS paths, MemFS as map keys.
type FS interface {
	// ReadFile returns the file's full contents in a buffer the caller
	// owns: recovery parses the checkpoint in place. A missing file must
	// surface an error satisfying os.IsNotExist / errors.Is(fs.ErrNotExist).
	ReadFile(name string) ([]byte, error)
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file; removing a missing file is an error.
	Remove(name string) error
	// SyncDir flushes directory metadata (created/renamed entries) for
	// dir. Implementations may make it a no-op where the platform gives
	// no handle on directory durability.
	SyncDir(dir string) error
}

// File is the writable handle FS hands out.
type File interface {
	io.Writer
	// Sync flushes written data to stable storage.
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Create implements FS.
func (OSFS) Create(name string) (File, error) { return os.Create(name) }

// OpenAppend implements FS.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// SyncDir fsyncs the directory so renames into it are durable. Platforms
// (and some filesystems) reject fsync on directories; that is reported,
// not fatal — the caller decides whether to treat it as an error.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	defer func() { _ = d.Close() }()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
