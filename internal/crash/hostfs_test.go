package crash

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	hostsys "syscall"
	"testing"

	"splitfs/internal/vfs"
)

// hostFS is a vfs.FileSystem over the host kernel's own file system,
// rooted in a directory: a reference no code in this repository
// implements. SibylFS (Ridge et al., SOSP '15) checked real kernels
// against one executable POSIX spec; here the kernel is the spec for
// the subset vfs exposes. Namespace calls go to the system calls
// directly, not through os's wrappers (os.Rename, for one, refuses to
// replace an empty directory, which rename(2) does).
type hostFS struct{ root string }

var _ vfs.FileSystem = (*hostFS)(nil)

func newHostFS(t testing.TB) *hostFS { return &hostFS{root: t.TempDir()} }

func (h *hostFS) Name() string { return "hostfs" }

// real maps a vfs path under the root; CleanPath resolves ".." before
// the join, so no path leaves it.
func (h *hostFS) real(p string) string {
	return filepath.Join(h.root, filepath.FromSlash(vfs.CleanPath(p)))
}

// hostErrs maps the host's errors to vfs's error classes.
var hostErrs = []struct {
	host  error
	class error
}{
	{fs.ErrNotExist, vfs.ErrNotExist},
	{fs.ErrExist, vfs.ErrExist},
	{hostsys.EISDIR, vfs.ErrIsDir},
	{hostsys.ENOTDIR, vfs.ErrNotDir},
	{hostsys.ENOTEMPTY, vfs.ErrNotEmpty},
	{hostsys.ENOSPC, vfs.ErrNoSpace},
	{hostsys.EBADF, vfs.ErrBadFD},
	{hostsys.EINVAL, vfs.ErrInval},
	{fs.ErrClosed, vfs.ErrClosed},
}

// hostErr wraps err's vfs class with op and the vfs path; an error of
// no class, io.EOF among them, is returned as it is.
func hostErr(op, path string, err error) error {
	for _, m := range hostErrs {
		if errors.Is(err, m.host) {
			return vfs.WrapPath(op, path, m.class)
		}
	}
	return err
}

// hostInfo converts what stat(2) returned; vfs counts 4 KB blocks,
// st_blocks 512-byte sectors.
func hostInfo(fi fs.FileInfo) vfs.FileInfo {
	st := fi.Sys().(*hostsys.Stat_t)
	return vfs.FileInfo{Ino: st.Ino, Size: fi.Size(), Blocks: st.Blocks / 8,
		IsDir: fi.IsDir(), Nlink: uint32(st.Nlink)}
}

func (h *hostFS) OpenFile(path string, flag int, perm uint32) (vfs.File, error) {
	osFlag := map[int]int{vfs.O_RDONLY: os.O_RDONLY, vfs.O_WRONLY: os.O_WRONLY, vfs.O_RDWR: os.O_RDWR}[flag&0x3]
	for _, b := range []struct{ v, o int }{{vfs.O_CREATE, os.O_CREATE},
		{vfs.O_EXCL, os.O_EXCL}, {vfs.O_TRUNC, os.O_TRUNC}, {vfs.O_APPEND, os.O_APPEND}} {
		if flag&b.v != 0 {
			osFlag |= b.o
		}
	}
	f, err := os.OpenFile(h.real(path), osFlag, fs.FileMode(perm))
	if err != nil {
		return nil, hostErr("open", path, err)
	}
	return &hostFile{f: f, path: path}, nil
}

func (h *hostFS) Mkdir(path string, perm uint32) error {
	return hostErr("mkdir", path, hostsys.Mkdir(h.real(path), perm))
}

func (h *hostFS) Unlink(path string) error {
	return hostErr("unlink", path, hostsys.Unlink(h.real(path)))
}

func (h *hostFS) Rmdir(path string) error {
	return hostErr("rmdir", path, hostsys.Rmdir(h.real(path)))
}

func (h *hostFS) Rename(oldPath, newPath string) error {
	return hostErr("rename", oldPath, hostsys.Rename(h.real(oldPath), h.real(newPath)))
}

func (h *hostFS) Stat(path string) (vfs.FileInfo, error) {
	fi, err := os.Lstat(h.real(path))
	if err != nil {
		return vfs.FileInfo{}, hostErr("stat", path, err)
	}
	return hostInfo(fi), nil
}

func (h *hostFS) ReadDir(path string) ([]vfs.DirEntry, error) {
	ents, err := os.ReadDir(h.real(path))
	if err != nil {
		return nil, hostErr("readdir", path, err)
	}
	out := make([]vfs.DirEntry, 0, len(ents))
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return nil, hostErr("readdir", path, err)
		}
		out = append(out, vfs.DirEntry{Name: e.Name(), Ino: hostInfo(fi).Ino, IsDir: e.IsDir()})
	}
	return out, nil
}

// hostFile is an open host file; its methods are the os.File calls of
// the same names.
type hostFile struct {
	f    *os.File
	path string
}

func (hf *hostFile) Read(p []byte) (int, error) {
	n, err := hf.f.Read(p)
	return n, hostErr("read", hf.path, err)
}

func (hf *hostFile) Write(p []byte) (int, error) {
	n, err := hf.f.Write(p)
	return n, hostErr("write", hf.path, err)
}

func (hf *hostFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := hf.f.ReadAt(p, off)
	return n, hostErr("read", hf.path, err)
}

func (hf *hostFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := hf.f.WriteAt(p, off)
	return n, hostErr("write", hf.path, err)
}

func (hf *hostFile) Seek(offset int64, whence int) (int64, error) {
	n, err := hf.f.Seek(offset, whence)
	return n, hostErr("seek", hf.path, err)
}

func (hf *hostFile) Truncate(size int64) error {
	return hostErr("truncate", hf.path, hf.f.Truncate(size))
}

func (hf *hostFile) Sync() error  { return hostErr("fsync", hf.path, hf.f.Sync()) }
func (hf *hostFile) Close() error { return hostErr("close", hf.path, hf.f.Close()) }
func (hf *hostFile) Path() string { return hf.path }

func (hf *hostFile) Stat() (vfs.FileInfo, error) {
	fi, err := hf.f.Stat()
	if err != nil {
		return vfs.FileInfo{}, hostErr("stat", hf.path, err)
	}
	return hostInfo(fi), nil
}
