package core

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"corroborate/internal/fault"
)

// CheckpointSink is the crash-safe, self-healing durable home of a
// stream's checkpoint. It keeps a stream's durable state as two files in
// one directory: the base, a full checkpoint at Path, and the log, an
// append-only file at Path+".log" with one record per batch since the
// base was written (see checkpoint_log.go for the record format).
//
// Save writes the base with the full crash-consistency protocol:
//
//  1. write the checkpoint to a temp file in the target's directory,
//  2. fsync the temp file (data on stable storage before it is visible),
//  3. close it, checking the error (close can surface deferred write
//     failures on some filesystems),
//  4. atomically rename it over the target,
//  5. fsync the parent directory (the rename itself on stable storage),
//  6. reset the log by removing it: the base now holds every batch the
//     log recorded.
//
// A crash at any point leaves either the previous checkpoint or the new
// one fully intact — never a torn file — which the fault-injection
// battery proves by killing the filesystem between every pair of steps.
// A crash between steps 4 and 6 leaves log records for batches the base
// already holds; Restore skips them.
//
// Commit makes one batch durable by appending its record to the log and
// fsyncing it — O(batch + moved sources), independent of the stream's
// history. It compacts through Save instead when the log has grown to the
// base's size (so compaction costs O(record) per batch amortised and a
// restore reads at most about twice the base), when no base is known, and
// when the log's tail is not a record this sink can append after.
//
// Transient write failures (a full disk draining, a flaky fsync) are
// retried with capped deterministic exponential backoff: MaxRetries
// retries after the first attempt, sleeping BaseDelay, 2·BaseDelay,
// 4·BaseDelay, … capped at MaxDelay, through the injectable Sleeper.
//
// On resume, a base or log that fails decoding, checksum verification or
// replay is quarantined together with its partner — renamed to
// <path>.corrupt and <path>.log.corrupt — and the stream starts fresh
// instead of refusing to serve: in a long-lived pipeline a half-written
// recovery point must cost the accumulated trust, not availability. The
// quarantined bytes stay on disk for forensics.
//
// The zero value of every optional field selects production behaviour:
// the real filesystem, the real clock, 3 retries, 10ms base delay. A sink
// carries the log's state from call to call, so one goroutine at a time
// may use it.
type CheckpointSink struct {
	// Path is the checkpoint's durable location.
	Path string
	// FS is the filesystem; nil means the real one (fault.OS()).
	FS fault.FS
	// Sleeper paces retry backoff; nil means the real clock.
	Sleeper fault.Sleeper
	// MaxRetries is how many times a failed save is retried after the
	// first attempt; 0 means 3. Negative disables retries.
	MaxRetries int
	// BaseDelay is the first backoff delay, doubled per retry; 0 means
	// 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; 0 means 500ms.
	MaxDelay time.Duration

	// log is the open append handle, nil until the next append opens it.
	log fault.File
	// appendable is true while the sink can vouch for the files: they
	// hold exactly the first durable batches, and the log ends on a
	// record boundary. Restore sets it (unless the log's tail was torn),
	// and so do Commit's compactions; any failure clears it, and so does
	// a Save made outside Commit, whose stream the sink cannot count.
	appendable bool
	durable    int
	// baseSize and logSize are the two files' lengths in bytes.
	baseSize, logSize int64
	// compactions counts successful Saves.
	compactions int64
}

// RestoreReport describes how a Restore call found the checkpoint.
type RestoreReport struct {
	// Resumed is true when a valid checkpoint was loaded.
	Resumed bool
	// QuarantinedPath is non-empty when a corrupt checkpoint was moved
	// aside; the returned stream is then a fresh start.
	QuarantinedPath string
	// QuarantinedLog is non-empty when the checkpoint's log was moved
	// aside with it.
	QuarantinedLog string
	// Cause is the decode error that triggered the quarantine.
	Cause error
}

// NewCheckpointSink returns a sink with production defaults.
func NewCheckpointSink(path string) *CheckpointSink { return &CheckpointSink{Path: path} }

// logPath is where the base at Path keeps its log: the same directory,
// so one directory fsync covers both files.
func (s *CheckpointSink) logPath() string { return s.Path + ".log" }

// LogBytes reports the log's current length in bytes.
func (s *CheckpointSink) LogBytes() int64 { return s.logSize }

// Compactions reports how many Saves this sink has completed.
func (s *CheckpointSink) Compactions() int64 { return s.compactions }

func (s *CheckpointSink) fileSystem() fault.FS {
	if s.FS != nil {
		return s.FS
	}
	return fault.OS()
}

func (s *CheckpointSink) sleeper() fault.Sleeper {
	if s.Sleeper != nil {
		return s.Sleeper
	}
	return fault.Std()
}

func (s *CheckpointSink) retries() int {
	if s.MaxRetries == 0 {
		return 3
	}
	if s.MaxRetries < 0 {
		return 0
	}
	return s.MaxRetries
}

func (s *CheckpointSink) delays() (base, limit time.Duration) {
	base, limit = s.BaseDelay, s.MaxDelay
	if base == 0 {
		base = 10 * time.Millisecond
	}
	if limit == 0 {
		limit = 500 * time.Millisecond
	}
	return base, limit
}

// Save durably replaces the checkpoint with st's current state and resets
// the log, retrying transient failures with capped exponential backoff.
// On return with nil error Path holds the full current checkpoint on
// stable storage; on error the previous checkpoint (if any) is still
// intact, or the new one is.
func (s *CheckpointSink) Save(st *Stream) error {
	// Whatever happens next, the old handle's file is about to be
	// replaced or is suspect.
	s.closeLog()
	data, err := st.encode()
	if err != nil {
		return err
	}
	base, limit := s.delays()
	delay := base
	for attempt := 0; ; attempt++ {
		err = s.saveOnce(data)
		if err == nil {
			s.compactions++
			return nil
		}
		if attempt >= s.retries() {
			break
		}
		s.sleeper().Sleep(delay)
		if delay *= 2; delay > limit {
			delay = limit
		}
	}
	return fmt.Errorf("core: checkpoint save failed after %d attempts: %w", s.retries()+1, err)
}

// saveOnce runs one pass of the crash-consistency protocol, publishing
// the encoded checkpoint data.
func (s *CheckpointSink) saveOnce(data []byte) error {
	fsys := s.fileSystem()
	dir := filepath.Dir(s.Path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(s.Path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: creating checkpoint temp file: %w", err)
	}
	name := tmp.Name()
	if err := fillAndClose(tmp, data); err != nil {
		removeQuiet(fsys, name)
		return fmt.Errorf("core: writing checkpoint temp file: %w", err)
	}
	if err := fsys.Rename(name, s.Path); err != nil {
		removeQuiet(fsys, name)
		return fmt.Errorf("core: publishing checkpoint: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("core: syncing checkpoint directory: %w", err)
	}
	// Only now that the base is durable may its log go. The removal need
	// not be durable itself: a log that survives a crash holds only
	// batches the base already has, and replay skips them.
	if err := fsys.Remove(s.logPath()); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("core: resetting checkpoint log: %w", err)
	}
	s.baseSize, s.logSize = int64(len(data)), 0
	return nil
}

// Commit makes st's newest batch durable. It appends the batch's record
// to the log and fsyncs it when the files hold exactly the batches before
// it; it compacts through Save instead when the log has grown to the
// base's size, when the sink cannot vouch for what the files hold or for
// the log's tail, or when st cannot describe the batch as a record (its
// first batch).
//
// A failed append or log fsync is never retried on the same file — after
// a failed fsync the kernel may already have dropped the dirty pages — so
// the retry is a full compaction through Save's backoff, and Commit's
// error is Save's.
func (s *CheckpointSink) Commit(st *Stream) error {
	if s.appendable && s.logSize < s.baseSize {
		rec, batch, err := st.batchRecord()
		if err == nil && batch == s.durable && s.appendRecord(rec) == nil {
			s.durable++
			return nil
		}
	}
	durable := st.Batches()
	if err := s.Save(st); err != nil {
		return err
	}
	s.appendable, s.durable = true, durable
	return nil
}

// appendRecord appends one framed record to the log and fsyncs it. On
// failure the handle is dropped and the sink stops appending until a
// Commit compacts.
func (s *CheckpointSink) appendRecord(rec []byte) error {
	fsys := s.fileSystem()
	opened := false
	if s.log == nil {
		f, err := fsys.OpenAppend(s.logPath())
		if err != nil {
			s.appendable = false
			return fmt.Errorf("core: opening checkpoint log: %w", err)
		}
		s.log, opened = f, true
	}
	_, err := s.log.Write(rec)
	if err == nil {
		err = s.log.Sync()
	}
	if err == nil && opened {
		// The log may be new, and the base's rename may be one a dead
		// process never fsynced: one directory fsync makes both durable
		// before the first record counts.
		err = fsys.SyncDir(filepath.Dir(s.Path))
	}
	if err != nil {
		s.closeLog()
		return fmt.Errorf("core: appending to checkpoint log: %w", err)
	}
	s.logSize += int64(len(rec))
	return nil
}

// closeLog drops the append handle and stops appending until a Commit
// compacts or a Restore finds the files sound. The handle's close error
// is moot: every caller is about to compact or restore, or has failed,
// and a compaction removes the file.
func (s *CheckpointSink) closeLog() {
	if s.log != nil {
		_ = s.log.Close()
		s.log = nil
	}
	s.appendable = false
}

// fillAndClose writes data into tmp, fsyncs, and closes it exactly once,
// reporting the first failure of the chain.
func fillAndClose(tmp fault.File, data []byte) error {
	_, err := tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	return err
}

// removeQuiet is best-effort temp cleanup on an already-failing path; the
// retry loop creates a fresh temp file either way, and a leftover temp
// never shadows the checkpoint (rename is the only publication).
func removeQuiet(fsys fault.FS, name string) {
	_ = fsys.Remove(name)
}

// Restore opens the checkpoint, replays its log, and returns a stream
// continuing them, with the given shard count. A missing checkpoint is a
// fresh start. A corrupt one — torn bytes, checksum mismatch, invalid
// state, a damaged log record with more bytes after it, a gap or repeat in
// the logged batches, or a log without a base — is quarantined with its
// log to Path+".corrupt" and Path+".log.corrupt" and reported through the
// RestoreReport, and a fresh stream is returned: restart is never blocked
// by a bad recovery point. An unterminated or checksum-failing final log
// record was never acknowledged and is ignored. Hard I/O errors
// (permissions, a failing disk) still error — they are repairable, and
// silently dropping history over them would not be.
//
// Restore changes nothing on disk beyond the quarantine and deleting the
// temp files a crashed Save left behind (a live Save whose temp file it
// deletes fails its rename and retries), so it may be pointed at a live
// tenant's files.
func (s *CheckpointSink) Restore(shards int) (*Stream, RestoreReport, error) {
	s.closeLog()
	s.baseSize, s.logSize = 0, 0
	fsys := s.fileSystem()
	s.removeTemps(fsys)
	base, haveBase, err := readFile(fsys, s.Path)
	if err != nil {
		return nil, RestoreReport{}, err
	}
	logData, haveLog, err := readFile(fsys, s.logPath())
	if err != nil {
		return nil, RestoreReport{}, err
	}
	var derr error
	if haveBase {
		st := NewShardedStream(shards)
		torn, rerr := restoreInto(st, base, logData)
		if rerr == nil {
			s.baseSize, s.logSize = int64(len(base)), int64(len(logData))
			// Appending behind an ignored torn record would bury it
			// mid-log, where it reads as corruption.
			s.appendable, s.durable = !torn, st.Batches()
			return st, RestoreReport{Resumed: true}, nil
		}
		derr = rerr
	} else if len(logData) > 0 {
		derr = fmt.Errorf("core: checkpoint log %s has no base checkpoint", s.logPath())
	} else {
		return NewShardedStream(shards), RestoreReport{}, nil
	}
	report, err := s.quarantine(fsys, haveBase, haveLog, derr)
	if err != nil {
		return nil, report, err
	}
	return NewShardedStream(shards), report, nil
}

// quarantine moves a corrupt base and its log aside, base first.
func (s *CheckpointSink) quarantine(fsys fault.FS, base, log bool, cause error) (RestoreReport, error) {
	report := RestoreReport{Cause: cause}
	if base {
		if err := fsys.Rename(s.Path, s.Path+".corrupt"); err != nil {
			return report, fmt.Errorf("core: quarantining corrupt checkpoint %s: %w", s.Path, err)
		}
		report.QuarantinedPath = s.Path + ".corrupt"
	}
	if log {
		if err := fsys.Rename(s.logPath(), s.logPath()+".corrupt"); err != nil {
			return report, fmt.Errorf("core: quarantining checkpoint log %s: %w", s.logPath(), err)
		}
		report.QuarantinedLog = s.logPath() + ".corrupt"
	}
	if err := fsys.SyncDir(filepath.Dir(s.Path)); err != nil {
		return report, fmt.Errorf("core: syncing directory after quarantine: %w", err)
	}
	return report, nil
}

// removeTemps deletes the <base>.tmp-* files a Save that crashed between
// CreateTemp and Rename left next to Path; each is up to a checkpoint in
// size, and nothing else would ever remove them. Best effort: a leftover
// temp never shadows the checkpoint.
func (s *CheckpointSink) removeTemps(fsys fault.FS) {
	dir := filepath.Dir(s.Path)
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	prefix := filepath.Base(s.Path) + ".tmp-"
	for _, name := range names {
		if strings.HasPrefix(name, prefix) {
			removeQuiet(fsys, filepath.Join(dir, name))
		}
	}
}

// readFile returns a file's contents and whether it exists.
func readFile(fsys fault.FS, name string) ([]byte, bool, error) {
	data, err := fsys.ReadFile(name)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("core: reading checkpoint %s: %w", name, err)
	}
	return data, true, nil
}
