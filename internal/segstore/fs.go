package segstore

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// FS abstracts every syscall the store performs against its directory, so
// tests can inject faults (EIO, ENOSPC, short writes, power cuts) at any
// individual operation and the production path stays a thin veneer over the
// os package. All paths are as the store builds them (filepath.Join of the
// store directory and a file name); implementations need no working-directory
// or symlink semantics beyond what os provides.
//
// Durability contract: File.Sync makes a file's written bytes durable;
// SyncDir makes the directory's name→file mapping (creates, renames,
// removes) durable. A crash may drop anything not covered by one of the two,
// including suffixes of individual writes — exactly the model errfs (the
// test implementation) enforces.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Stat returns the size of path; a missing file reports an error
	// satisfying errors.Is(err, fs.ErrNotExist).
	Stat(path string) (int64, error)
	// Create truncates-or-creates path for writing.
	Create(path string) (File, error)
	// OpenAppend opens an existing path for appending.
	OpenAppend(path string) (File, error)
	// ReadFile returns the whole contents of path.
	ReadFile(path string) ([]byte, error)
	// Rename atomically replaces newPath with oldPath.
	Rename(oldPath, newPath string) error
	// Remove unlinks path.
	Remove(path string) error
	// ReadDir lists the file names in dir.
	ReadDir(dir string) ([]string, error)
	// Truncate cuts path to size bytes.
	Truncate(path string, size int64) error
	// SyncDir fsyncs dir so renames and creates within it are durable.
	SyncDir(dir string) error
}

// File is one open store file handle.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// osFS is the production FS: the os package.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Stat(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (osFS) Create(path string) (File, error)     { return os.Create(path) }
func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(des))
	for i, de := range des {
		names[i] = de.Name()
	}
	return names, nil
}

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// SyncDir fsyncs the directory. Filesystems that cannot sync directories
// (EINVAL/ENOTSUP from some network and FUSE mounts) are tolerated — there is
// nothing stronger the store could do there — but real I/O errors propagate:
// when sync is enabled, a failed directory fsync is a failed commit.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		if errors.Is(serr, syscall.EINVAL) || errors.Is(serr, syscall.ENOTSUP) {
			return nil
		}
		return serr
	}
	return cerr
}

// writeFile creates path holding data and, unless noSync, fsyncs it.
func writeFile(fsys FS, path string, data []byte, noSync bool) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

// replaceFile atomically replaces path with data: tmp file, fsync, rename,
// directory fsync. Every step's error propagates — with sync enabled, a
// failed directory fsync is a failed commit (the rename may not survive a
// crash), and the caller must treat the previous file as still current.
func replaceFile(fsys FS, path string, data []byte, noSync bool) error {
	tmp := path + ".tmp"
	if err := writeFile(fsys, tmp, data, noSync); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	if !noSync {
		return fsys.SyncDir(filepath.Dir(path))
	}
	return nil
}

// notExist reports whether err is a missing-file error from any FS.
func notExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
