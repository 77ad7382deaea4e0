package ext4dax

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestStaleHandleAfterInodeReuse: a handle to an unlinked file reads its
// orphan, whatever is created beside it, and reports Linked() == false;
// once it is closed and the free has committed, a create takes the
// file's record and its inode number, and every call on the old handle
// gets vfs.ErrClosed or false — never the new file. Then the old handle
// is hammered from another goroutine while creates and unlinks recycle
// the record again and again: run it under -race, as CI does, for the
// generation (inode.gen) every handle checks under the locks the record
// is reset and freed under. Last, a directory's handle, still open when
// rmdir frees the inode, is as stale as a closed one.
func TestStaleHandleAfterInodeReuse(t *testing.T) {
	_, fs := newFS(t)
	old := bytes.Repeat([]byte{0xa1}, 3*sim.BlockSize+100)
	fresh := bytes.Repeat([]byte{0x5e}, sim.BlockSize)
	write := func(path string, data []byte) *File {
		t.Helper()
		f, err := vfs.Create(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		return f.(*File)
	}
	readsOld := func(h *File) {
		t.Helper()
		got := make([]byte, len(old))
		if n, err := h.ReadAt(got, 0); n != len(old) || !bytes.Equal(got, old) {
			t.Fatalf("the handle reads %d bytes (%v), not its orphan's", n, err)
		}
	}

	h := write("/a", old)
	ino := h.Ino()
	if err := fs.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	b := write("/b", fresh)
	if b.Ino() == ino {
		t.Fatal("a create took the inode number of an open orphan")
	}
	if h.Linked() {
		t.Fatal("Linked() on an unlinked file's handle")
	}
	readsOld(h)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // the free commits: the record is a spare
		t.Fatal(err)
	}
	if err := fs.Recreate(nil, "/c", ino, false); err != nil {
		t.Fatal(err)
	}
	cf, err := fs.OpenFile("/c", vfs.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := cf.(*File)
	if c.in != h.in || c.Ino() != ino {
		t.Fatal("test premise: /c did not take /a's record and inode number")
	}
	if _, err := c.Write(fresh); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 64)
	calls := []struct {
		name string
		call func() error
	}{
		{"ReadAt", func() error { _, err := h.ReadAt(buf, 0); return err }},
		{"WriteAt", func() error { _, err := h.WriteAt(buf, 0); return err }},
		{"Seek", func() error { _, err := h.Seek(0, vfs.SeekEnd); return err }},
		{"Truncate", func() error { return h.Truncate(0) }},
		{"Sync", func() error { return h.Sync() }},
		{"Stat", func() error { _, err := h.Stat(); return err }},
		{"MapExtents", func() error { _, _, err := h.MapExtents(0, sim.BlockSize); return err }},
		{"Preallocate", func() error { return h.Preallocate(1, 0) }},
		{"Mmap", func() error { _, err := fs.Mmap(h, 0, sim.BlockSize, MmapOptions{}); return err }},
		{"Close", func() error { return h.Close() }},
	}
	for _, c := range calls {
		if err := c.call(); !errors.Is(err, vfs.ErrClosed) {
			t.Errorf("%s on the stale handle: %v, want %v", c.name, err, vfs.ErrClosed)
		}
	}
	if h.Linked() {
		t.Error("Linked() on the stale handle reports the file that took its record")
	}
	got, err := vfs.ReadFile(fs, "/c")
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("/c reads %d bytes (%v), want its own %d", len(got), err, len(fresh))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The record goes round: every create takes what the unlink before it
	// freed, while the stale handle is called from another goroutine.
	var stop sync.WaitGroup
	done := make(chan struct{})
	stop.Add(1)
	go func() {
		defer stop.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, c := range calls[:7] {
				if err := c.call(); !errors.Is(err, vfs.ErrClosed) {
					t.Errorf("%s on the stale handle while its record is recycled: %v", c.name, err)
					return
				}
			}
			if h.Linked() {
				t.Error("Linked() on the stale handle while its record is recycled")
				return
			}
		}
	}()
	for range 200 {
		if err := fs.Unlink("/c"); err != nil {
			t.Fatal(err)
		}
		c := write("/c", fresh)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	stop.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// A directory is the one inode freed under an open handle: rmdir does
	// not wait for the last close. The handle stays open, and is stale.
	if err := fs.Mkdir("/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	df, err := fs.OpenFile("/dir", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/dir"); err != nil {
		t.Fatal(err)
	}
	d := df.(*File)
	for name, err := range map[string]error{
		"ReadAt":     func() error { _, err := d.ReadAt(buf, 0); return err }(),
		"Seek":       func() error { _, err := d.Seek(0, vfs.SeekEnd); return err }(),
		"Stat":       func() error { _, err := d.Stat(); return err }(),
		"MapExtents": func() error { _, _, err := d.MapExtents(0, sim.BlockSize); return err }(),
		"Sync":       d.Sync(),
	} {
		if !errors.Is(err, vfs.ErrClosed) {
			t.Errorf("%s on a removed directory's handle: %v, want %v", name, err, vfs.ErrClosed)
		}
	}
	if d.Linked() {
		t.Error("Linked() on a removed directory's handle")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateTakesLowestCommittedNumber: a create takes the lowest free
// inode number, as ext4's find_inode_bit takes the first clear bit, and
// never a number whose free has not committed — however low it is.
func TestCreateTakesLowestCommittedNumber(t *testing.T) {
	_, fs := newFS(t)
	create := func(path string) uint64 {
		t.Helper()
		f, err := vfs.Create(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return f.(*File).Ino()
	}
	expect := func(path string, want uint64) {
		t.Helper()
		if got := create(path); got != want {
			t.Fatalf("create %s took inode %d, want %d", path, got, want)
		}
	}
	// Mkfs took 0 (invalid) and the root; the table fills from 2 up.
	for i := range 8 {
		expect(fmt.Sprintf("/f%d", i), uint64(2+i))
	}
	fs.CommitMeta()
	for _, p := range []string{"/f5", "/f1"} { // inodes 7 and 3
		if err := fs.Unlink(p); err != nil {
			t.Fatal(err)
		}
	}
	// The frees are in the running transaction: 3 and 7 stay taken.
	expect("/g0", 10)
	fs.CommitMeta()
	expect("/g1", 3)
	expect("/g2", 7)
	expect("/g3", 11)
}

// TestNewInodeStartsAtTheHighestWatermark: a new inode's watermark is the
// highest any inode has carried since mount, and a mount seeds it from
// every record and every journal stamp. So whatever takes a freed number,
// a file or directory of a U-Split instance in any mode, masks the log
// entries of the number's previous lives, even after the inode that
// carried the highest watermark is gone.
func TestNewInodeStartsAtTheHighestWatermark(t *testing.T) {
	dev, fs := newFS(t)
	create := func(path string, want uint64) *File {
		t.Helper()
		f, err := vfs.Create(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		kf := f.(*File)
		if got := kf.UserWatermark(); got != want {
			t.Fatalf("create %s: watermark %d, want %d", path, got, want)
		}
		return kf
	}
	commit := func() {
		t.Helper()
		fs.CommitMeta()
	}
	f := create("/f", 0)
	f.SetUserWatermark(nil, 77)
	f.Close()
	g := create("/g", 77)
	g.SetUserWatermark(nil, 5)
	g.Close()
	commit()
	freed := f.Ino()
	if err := fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	commit()
	h := create("/h", 77)
	if h.Ino() != freed {
		t.Fatalf("/h took inode %d, not the freed %d", h.Ino(), freed)
	}
	h.Close()
	commit()
	remount := func() {
		t.Helper()
		var err error
		if fs, _, err = Mount(dev, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	remount()
	create("/k", 77).Close() // /h's record
	b := fs.BeginBatch()
	b.SetStamp(1, 90)
	b.End()
	commit()
	remount()
	create("/m", 90).Close() // the stamp
}
