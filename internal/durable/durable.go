// Package durable replaces files so that the new contents survive a
// power loss, not only a process kill. A replace is temp file → write →
// fsync → rename → fsync of the directory: the file fsync makes the bytes
// durable, the rename swaps them in atomically, and the directory fsync
// makes the rename itself durable (fsync(2): a file's name lives in its
// directory, which the file's own fsync does not flush). Without the
// last step a power loss can roll the name back to the previous file.
//
// All I/O goes through the small FS interface, so a crash-state model
// (package durabletest) can stand in for the operating system in tests
// and cut the sequence at any operation.
package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FS is the file-system surface the durable writers use. Paths are
// joined with filepath.Join; dir arguments name a directory.
type FS interface {
	// MkdirAll creates dir and its parents if missing.
	MkdirAll(dir string) error
	// CreateTemp creates a new file in dir whose name is pattern with
	// its last "*" replaced by a random string.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// SyncDir flushes dir's entries (creations, renames, removals).
	SyncDir(dir string) error
	// Remove deletes one file.
	Remove(name string) error
	// List returns the names of the regular files in dir, sorted.
	List(dir string) ([]string, error)
	// ReadFile returns a file's contents; a missing file is an error
	// satisfying errors.Is(err, os.ErrNotExist).
	ReadFile(name string) ([]byte, error)
}

// File is an open temp file from FS.CreateTemp.
type File interface {
	io.Writer
	// Name is the file's full path.
	Name() string
	Sync() error
	Close() error
}

// OS is the production FS, backed by package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

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

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// tempMarker separates a target name from the random suffix of its temp
// files: dir/name is written as dir/name.tmp-<random> first.
const tempMarker = ".tmp-"

// WriteFile replaces dir/name with the bytes write produces and returns
// once the replacement is durable. A crash at any point leaves either
// the previous file or the new one under name, never a torn one; the
// worst case is an orphaned temp file, which RemoveTemps cleans at the
// next boot.
func WriteFile(fsys FS, dir, name string, write func(io.Writer) error) error {
	f, err := fsys.CreateTemp(dir, name+tempMarker+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

// RemoveTemps deletes the temp files that WriteFile calls cut short by a
// crash left in dir. Run it at boot, before any writer starts: a live
// WriteFile's temp file is indistinguishable from an orphan.
func RemoveTemps(fsys FS, dir string) error {
	names, err := fsys.List(dir)
	if err != nil {
		return err
	}
	var errs []error
	for _, name := range names {
		if strings.Contains(name, tempMarker) {
			errs = append(errs, fsys.Remove(filepath.Join(dir, name)))
		}
	}
	return errors.Join(errs...)
}
