package fault

import (
	"io"
	"os"
)

// File is the slice of *os.File the checkpoint sink writes through:
// sequential writes plus the durability calls (Sync) whose failure modes
// the injecting implementation simulates.
type File interface {
	io.Writer
	// Name returns the file's path as opened.
	Name() string
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Close releases the file; on writable files its error is part of the
	// write path and must be checked (see the closecheck analyzer).
	Close() error
}

// FS is the filesystem surface of the crash-safe checkpoint protocol:
// write a temp file, fsync it, publish it with an atomic rename, fsync
// the parent directory so the rename itself is durable; between two such
// publications, append and fsync per-batch records to a log file next to
// it. OS() is the real implementation; NewInjectFS wraps any FS with
// deterministic faults.
type FS interface {
	// CreateTemp creates a new temporary file in dir (see os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile returns a file's contents, read with one allocation sized
	// from the file's length (see os.ReadFile).
	ReadFile(name string) ([]byte, error)
	// OpenAppend opens a file for writing at its end, creating it when
	// missing (os.O_WRONLY|os.O_CREATE|os.O_APPEND, mode 0644).
	OpenAppend(name string) (File, error)
	// ReadDir lists the names of dir's entries in sorted order.
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file: temp cleanup, and the checkpoint log's reset.
	Remove(name string) error
	// SyncDir fsyncs a directory, making renames within it durable.
	SyncDir(dir string) error
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
