package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// ErrInjected is the sentinel wrapped by every transient injected I/O
// failure (short writes, fsync failures). Transient means: the operation
// failed, the process is still alive, and a retry may succeed.
var ErrInjected = errors.New("fault: injected I/O failure")

// ErrCrashed is the sentinel wrapped by every operation attempted after
// an injected crash. A crashed InjectFS simulates a dead process: nothing
// works until the test constructs a fresh FS over the same directory —
// the moral equivalent of a restart.
var ErrCrashed = errors.New("fault: filesystem crashed")

// crashMode selects what an armed crash at a directory operation (rename
// or remove) leaves on disk.
type crashMode int

const (
	crashClean crashMode = iota
	// crashBefore: the process dies before the operation reaches the
	// directory — for a rename the old target (if any) survives and the
	// temp file remains; for a remove the file survives.
	crashBefore
	// crashAfter: the operation is applied, then the process dies before
	// it could report success.
	crashAfter
)

// armCrash maps the applied flag of CrashAtRename/CrashAtRemove to a mode.
func armCrash(applied bool) crashMode {
	if applied {
		return crashAfter
	}
	return crashBefore
}

// fireCrash runs op under an armed crash mode and disarms it: the
// process dies before op, or just after it. Callers hold f.mu.
func (f *InjectFS) fireCrash(mode *crashMode, what string, op func() error) error {
	armed := *mode
	*mode = crashClean
	f.dead = true
	if armed == crashAfter {
		if err := op(); err != nil {
			return err
		}
		return fmt.Errorf("%s applied, ack lost: %w", what, ErrCrashed)
	}
	return fmt.Errorf("%s: %w", what, ErrCrashed)
}

// InjectFS wraps an FS with deterministic, individually armed faults.
// Every fault fires on an explicit arm count; the only seeded freedom is
// the length of the prefix a torn write persists. Safe for concurrent
// use, though the checkpoint sink drives it sequentially.
type InjectFS struct {
	inner FS

	mu          sync.Mutex
	rng         *rand.Rand
	dead        bool
	failSyncs   int
	failDirSync int
	shortWrites int
	tearWrites  int
	crashRename crashMode
	crashRemove crashMode
}

// NewInjectFS wraps inner with a disarmed injector; seed fixes the torn
// write prefix schedule.
func NewInjectFS(inner FS, seed int64) *InjectFS {
	return &InjectFS{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// FailSyncs makes the next n File.Sync calls fail transiently.
func (f *InjectFS) FailSyncs(n int) { f.mu.Lock(); f.failSyncs = n; f.mu.Unlock() }

// FailDirSyncs makes the next n SyncDir calls fail transiently.
func (f *InjectFS) FailDirSyncs(n int) { f.mu.Lock(); f.failDirSync = n; f.mu.Unlock() }

// ShortWrites makes the next n writes persist only a seeded prefix and
// report a transient error for the rest.
func (f *InjectFS) ShortWrites(n int) { f.mu.Lock(); f.shortWrites = n; f.mu.Unlock() }

// TearWrites makes the next n writes persist a seeded prefix and then
// crash the filesystem — the classic torn write: data partially on disk,
// process gone.
func (f *InjectFS) TearWrites(n int) { f.mu.Lock(); f.tearWrites = n; f.mu.Unlock() }

// CrashAtRename arms a crash at the next Rename. With applied=false the
// process dies before the rename takes effect; with applied=true it dies
// just after — both legal outcomes of a real crash during rename, and a
// crash-safe checkpoint protocol must resume from either.
func (f *InjectFS) CrashAtRename(applied bool) {
	f.mu.Lock()
	f.crashRename = armCrash(applied)
	f.mu.Unlock()
}

// CrashAtRemove arms a crash at the next Remove, before it takes effect
// (applied=false) or just after (applied=true) — the two sides of the
// checkpoint log's reset.
func (f *InjectFS) CrashAtRemove(applied bool) {
	f.mu.Lock()
	f.crashRemove = armCrash(applied)
	f.mu.Unlock()
}

// Crashed reports whether an armed crash has fired.
func (f *InjectFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// checkAlive returns ErrCrashed when the simulated process is dead.
func (f *InjectFS) checkAlive() error {
	if f.dead {
		return fmt.Errorf("operation after crash: %w", ErrCrashed)
	}
	return nil
}

func (f *InjectFS) CreateTemp(dir, pattern string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injectFile{fs: f, inner: inner}, nil
}

func (f *InjectFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *InjectFS) OpenAppend(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &injectFile{fs: f, inner: inner}, nil
}

func (f *InjectFS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

func (f *InjectFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return err
	}
	op := func() error { return f.inner.Rename(oldpath, newpath) }
	if f.crashRename != crashClean {
		return f.fireCrash(&f.crashRename, fmt.Sprintf("rename %s → %s", oldpath, newpath), op)
	}
	return op()
}

func (f *InjectFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return err
	}
	op := func() error { return f.inner.Remove(name) }
	if f.crashRemove != crashClean {
		return f.fireCrash(&f.crashRemove, "remove "+name, op)
	}
	return op()
}

func (f *InjectFS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkAlive(); err != nil {
		return err
	}
	if f.failDirSync > 0 {
		f.failDirSync--
		return fmt.Errorf("fsync dir %s: %w", dir, ErrInjected)
	}
	return f.inner.SyncDir(dir)
}

// injectFile threads file operations back through the injector so armed
// write and sync faults fire regardless of which file carries them.
type injectFile struct {
	fs    *InjectFS
	inner File
}

func (c *injectFile) Name() string { return c.inner.Name() }

func (c *injectFile) Write(p []byte) (int, error) {
	c.fs.mu.Lock()
	if err := c.fs.checkAlive(); err != nil {
		c.fs.mu.Unlock()
		return 0, err
	}
	switch {
	case c.fs.shortWrites > 0:
		c.fs.shortWrites--
		n := c.fs.prefixLen(len(p))
		c.fs.mu.Unlock()
		written, err := c.inner.Write(p[:n])
		if err != nil {
			return written, err
		}
		return written, fmt.Errorf("short write (%d of %d bytes): %w", written, len(p), ErrInjected)
	case c.fs.tearWrites > 0:
		c.fs.tearWrites--
		n := c.fs.prefixLen(len(p))
		c.fs.dead = true
		c.fs.mu.Unlock()
		if written, err := c.inner.Write(p[:n]); err != nil {
			return written, err
		}
		return n, fmt.Errorf("torn write (%d of %d bytes persisted): %w", n, len(p), ErrCrashed)
	}
	c.fs.mu.Unlock()
	return c.inner.Write(p)
}

// prefixLen draws how much of a len-byte write survives a short or torn
// write: deterministic under the injector's seed, always a strict prefix.
// Callers hold fs.mu.
func (f *InjectFS) prefixLen(n int) int {
	if n <= 1 {
		return 0
	}
	return f.rng.Intn(n)
}

func (c *injectFile) Sync() error {
	c.fs.mu.Lock()
	if err := c.fs.checkAlive(); err != nil {
		c.fs.mu.Unlock()
		return err
	}
	if c.fs.failSyncs > 0 {
		c.fs.failSyncs--
		c.fs.mu.Unlock()
		return fmt.Errorf("fsync %s: %w", c.inner.Name(), ErrInjected)
	}
	c.fs.mu.Unlock()
	return c.inner.Sync()
}

func (c *injectFile) Close() error {
	// Close always reaches the inner file, even after a crash: the
	// simulated kernel closes descriptors of dead processes, and leaking
	// them would fail unrelated tests on open-file limits.
	return c.inner.Close()
}
