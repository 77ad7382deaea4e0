package splitfs

import (
	"encoding/binary"
	"fmt"

	"splitfs/internal/ext4dax"
	"splitfs/internal/vfs"
)

// This file implements the process-lifecycle handling of §3.5: fork(),
// execve(), and dup(). Dup itself lives in vfs.FDTable (descriptors share
// one File and therefore one offset); here are the library-state
// analogues for address-space events.

// Fork returns a U-Split instance for the child process: the library is
// copied with the parent's address space, so the child sees the same
// open-file descriptions, attribute cache, and mappings. The kernel file
// system, staging pool, and operation log are shared objects on PM, just
// as they are between a forked parent and child — the log with the lock
// and the sequence counter that order its entries, so that what parent and
// child log afterwards is one sequence to recovery.
func (fs *FS) Fork() *FS {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	child := &FS{
		kfs:     fs.kfs,
		dev:     fs.dev,
		clk:     fs.clk,
		cfg:     fs.cfg,
		mode:    fs.mode,
		files:   make(map[uint64]*ofile, len(fs.files)),
		attrs:   make(map[string]vfs.FileInfo),
		staging: fs.staging,
		mmaps:   fs.mmaps,
		opLog:   fs.opLog,
	}
	for ino, of := range fs.files {
		of.mu.RLock()
		cp := &ofile{
			ino:    of.ino,
			kf:     of.kf,
			path:   of.path,
			size:   of.size,
			ksize:  of.ksize,
			staged: append([]stagedRange(nil), of.staged...),
			logSeq: of.logSeq,
			refs:   of.refs,
		}
		of.mu.RUnlock()
		// The child's copied overlay holds independent references into the
		// shared staging pool: without its own counts, the first side to
		// relink would let the reclaimer unmap staging files the other
		// still reads. The active chunk is not inherited — a chunk has one
		// holder, which may give its tail back; the child's next append
		// reserves its own.
		fs.staging.mu.Lock()
		for _, s := range cp.staged {
			if s.sf != nil {
				s.sf.refs++
			}
		}
		fs.staging.mu.Unlock()
		child.files[ino] = cp
	}
	fs.amu.Lock()
	for p, info := range fs.attrs {
		child.attrs[p] = info
	}
	fs.amu.Unlock()
	return child
}

// execState is the serialized open-file table written to the shm file.
const execShmDir = "/.splitfs-shm"

// PrepareExec serializes U-Split's in-memory state about open files to a
// shared-memory file named by pid, as SplitFS does before execve() (§3.5:
// "SplitFS copies its in-memory data about open files to a shared memory
// file on /dev/shm; the file name is the process ID").
//
// Staged data is relinked first: the post-exec image maps nothing, so
// staged overlays cannot be carried across the boundary.
func (fs *FS) PrepareExec(pid int) error {
	unlock, err := fs.lockStrict(0)
	if err != nil {
		return err
	}
	defer unlock()
	if err := fs.syncFiles(fs.openFiles()...); err != nil {
		return err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var buf []byte
	u64 := func(v uint64) { var t [8]byte; binary.LittleEndian.PutUint64(t[:], v); buf = append(buf, t[:]...) }
	str := func(s string) {
		var t [2]byte
		binary.LittleEndian.PutUint16(t[:], uint16(len(s)))
		buf = append(buf, t[:]...)
		buf = append(buf, s...)
	}
	u64(uint64(len(fs.files)))
	for _, of := range fs.files {
		of.mu.RLock()
		u64(of.ino)
		str(of.path)
		u64(uint64(of.size))
		u64(uint64(of.refs))
		of.mu.RUnlock()
	}
	if err := fs.kfs.Mkdir(execShmDir, 0700); err != nil {
		if _, statErr := fs.kfs.Stat(execShmDir); statErr != nil {
			return err
		}
	}
	return vfs.WriteFile(fs.kfs, shmPath(pid), buf)
}

// ResumeExec reconstructs the open-file table in the post-exec image from
// the shm file and removes it.
func (fs *FS) ResumeExec(pid int) error {
	data, err := vfs.ReadFile(fs.kfs, shmPath(pid))
	if err != nil {
		return fmt.Errorf("splitfs: no exec state for pid %d: %w", pid, err)
	}
	defer fs.kfs.Unlink(shmPath(pid))
	fs.mu.Lock()
	defer fs.mu.Unlock()
	off := 0
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(data[off:]); off += 8; return v }
	str := func() string {
		n := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		s := string(data[off : off+n])
		off += n
		return s
	}
	n := int(u64())
	for i := 0; i < n; i++ {
		ino := u64()
		path := str()
		size := int64(u64())
		refs := int(u64())
		kf, err := fs.kfs.OpenFile(path, vfs.O_RDWR, 0)
		if err != nil {
			return err
		}
		fs.files[ino] = &ofile{
			ino: ino, path: path, kf: kf.(*ext4dax.File),
			size: size, ksize: size, refs: refs,
		}
		info, _ := kf.Stat()
		fs.amu.Lock()
		fs.attrs[path] = info
		fs.amu.Unlock()
	}
	return nil
}

func shmPath(pid int) string { return fmt.Sprintf("%s/%d", execShmDir, pid) }

// OpenHandle recreates a File for an inode restored by ResumeExec; the
// post-exec process uses it to keep using its pre-exec descriptors.
func (fs *FS) OpenHandle(ino uint64, flag int) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	of, ok := fs.files[ino]
	if !ok {
		return nil, vfs.ErrBadFD
	}
	return &File{fs: fs, of: of, flag: flag, path: of.path}, nil
}
