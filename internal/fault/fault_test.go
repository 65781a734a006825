package fault

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestPanicsFireCounts(t *testing.T) {
	p := NewPanics()
	p.Arm("sig", 2)
	fire := func() (panicked bool) {
		defer func() {
			if v := recover(); v != nil {
				inj, ok := v.(Injected)
				if !ok || inj.Key != "sig" {
					t.Fatalf("panic value = %#v, want Injected{sig}", v)
				}
				panicked = true
			}
		}()
		p.Fire("sig")
		return false
	}
	if !fire() || !fire() {
		t.Fatal("armed site did not fire twice")
	}
	if fire() {
		t.Fatal("site fired beyond its arm count")
	}
	if got := p.Fired("sig"); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
	p.Fire("other") // unarmed: no panic
}

func TestPanicsForeverAndNil(t *testing.T) {
	p := NewPanics()
	p.Arm("sig", -1)
	for i := 0; i < 5; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("fire %d: forever-armed site did not panic", i)
				}
			}()
			p.Fire("sig")
		}()
	}
	var nilP *Panics
	nilP.Fire("sig") // no-op, no panic
	if nilP.Fired("sig") != 0 {
		t.Fatal("nil injector reports fires")
	}
}

func TestPanicsConcurrentFire(t *testing.T) {
	p := NewPanics()
	p.Arm("sig", 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				func() {
					defer func() { _ = recover() }()
					p.Fire("sig")
				}()
			}
		}()
	}
	wg.Wait()
	if got := p.Fired("sig"); got != 8 {
		t.Fatalf("Fired = %d, want exactly the armed 8", got)
	}
}

func TestRecorderKeepsSchedule(t *testing.T) {
	r := NewRecorder()
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond} {
		r.Sleep(d)
	}
	got := r.Slept()
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("recorded %d delays, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delay %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// writeTemp writes data through fs into dir and returns the temp file
// name and the first error of the write/close pair.
func writeTemp(fs FS, dir string, data []byte) (string, error) {
	f, err := fs.CreateTemp(dir, "t-*")
	if err != nil {
		return "", err
	}
	_, werr := f.Write(data)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return f.Name(), werr
}

func TestInjectFSShortWriteIsTransient(t *testing.T) {
	dir := t.TempDir()
	fs := NewInjectFS(OS(), 1)
	fs.ShortWrites(1)
	name, err := writeTemp(fs, dir, []byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write error = %v, want ErrInjected", err)
	}
	on, _ := os.ReadFile(name)
	if len(on) >= 10 {
		t.Fatalf("short write persisted %d bytes, want a strict prefix", len(on))
	}
	if fs.Crashed() {
		t.Fatal("short write killed the filesystem; must stay alive for retries")
	}
	// The retry succeeds.
	if _, err := writeTemp(fs, dir, []byte("0123456789")); err != nil {
		t.Fatalf("retry after short write: %v", err)
	}
}

func TestInjectFSTornWriteCrashes(t *testing.T) {
	dir := t.TempDir()
	fs := NewInjectFS(OS(), 7)
	fs.TearWrites(1)
	name, err := writeTemp(fs, dir, []byte("0123456789"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write error = %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("torn write did not crash the filesystem")
	}
	on, _ := os.ReadFile(name)
	if len(on) >= 10 {
		t.Fatalf("torn write persisted %d bytes, want a strict prefix", len(on))
	}
	// Everything after the crash fails.
	if _, err := fs.CreateTemp(dir, "t-*"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("CreateTemp after crash = %v, want ErrCrashed", err)
	}
	if err := fs.Rename(name, filepath.Join(dir, "x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Rename after crash = %v, want ErrCrashed", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("SyncDir after crash = %v, want ErrCrashed", err)
	}
}

func TestInjectFSSyncFailures(t *testing.T) {
	dir := t.TempDir()
	fs := NewInjectFS(OS(), 3)
	fs.FailSyncs(1)
	f, err := fs.CreateTemp(dir, "t-*")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first Sync = %v, want ErrInjected", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("second Sync = %v, want success", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fs.FailDirSyncs(1)
	if err := fs.SyncDir(dir); !errors.Is(err, ErrInjected) {
		t.Fatalf("first SyncDir = %v, want ErrInjected", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatalf("second SyncDir = %v, want success", err)
	}
}

func TestInjectFSCrashAtRename(t *testing.T) {
	for _, applied := range []bool{false, true} {
		dir := t.TempDir()
		fs := NewInjectFS(OS(), 11)
		name, err := writeTemp(fs, dir, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		target := filepath.Join(dir, "target")
		fs.CrashAtRename(applied)
		if err := fs.Rename(name, target); !errors.Is(err, ErrCrashed) {
			t.Fatalf("applied=%v: Rename = %v, want ErrCrashed", applied, err)
		}
		_, statErr := os.Stat(target)
		if applied && statErr != nil {
			t.Fatalf("applied=true: target missing after crash: %v", statErr)
		}
		if !applied && statErr == nil {
			t.Fatal("applied=false: rename reached the directory before the crash")
		}
	}
}

func TestInjectFSCrashAtRemove(t *testing.T) {
	for _, applied := range []bool{false, true} {
		dir := t.TempDir()
		fs := NewInjectFS(OS(), 11)
		name, err := writeTemp(fs, dir, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		fs.CrashAtRemove(applied)
		if err := fs.Remove(name); !errors.Is(err, ErrCrashed) {
			t.Fatalf("applied=%v: Remove = %v, want ErrCrashed", applied, err)
		}
		if _, err := os.Stat(name); (err == nil) == applied {
			t.Fatalf("applied=%v: file present after crash = %v", applied, err == nil)
		}
		if _, err := fs.OpenAppend(name); !errors.Is(err, ErrCrashed) {
			t.Fatalf("applied=%v: OpenAppend after crash = %v, want ErrCrashed", applied, err)
		}
		if _, err := fs.ReadDir(dir); !errors.Is(err, ErrCrashed) {
			t.Fatalf("applied=%v: ReadDir after crash = %v, want ErrCrashed", applied, err)
		}
		if _, err := fs.ReadFile(name); !errors.Is(err, ErrCrashed) {
			t.Fatalf("applied=%v: ReadFile after crash = %v, want ErrCrashed", applied, err)
		}
	}
}

func TestInjectFSSeedDeterminism(t *testing.T) {
	prefixes := func(seed int64) []int {
		dir := t.TempDir()
		fs := NewInjectFS(OS(), seed)
		fs.ShortWrites(4)
		var out []int
		for i := 0; i < 4; i++ {
			name, err := writeTemp(fs, dir, []byte("0123456789abcdef"))
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("write %d: %v", i, err)
			}
			on, _ := os.ReadFile(name)
			out = append(out, len(on))
		}
		return out
	}
	a, b := prefixes(42), prefixes(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 prefix schedule diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs := OS()
	name, err := writeTemp(fs, dir, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, "out")
	if err := fs.Rename(name, target); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Fatalf("read back %q", data)
	}
	// OpenAppend creates a missing file and writes at the end of an
	// existing one.
	log := filepath.Join(dir, "log")
	for _, part := range []string{"a", "b"} {
		f, err := fs.OpenAppend(log)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Write([]byte(part))
		if serr := f.Sync(); err == nil {
			err = serr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, err := os.ReadFile(log); err != nil || string(got) != "ab" {
		t.Fatalf("appended file = %q, %v; want \"ab\"", got, err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil || len(names) != 2 || names[0] != "log" || names[1] != "out" {
		t.Fatalf("ReadDir = %v, %v; want [log out]", names, err)
	}
	if err := fs.Remove(target); err != nil {
		t.Fatal(err)
	}
}
