package stack_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// errClass names an error by the vfs sentinel it wraps, so a served
// wrapper's decoded error compares equal to the direct one.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, e := range []error{vfs.ErrNotExist, vfs.ErrExist, vfs.ErrIsDir, vfs.ErrNotDir,
		vfs.ErrNotEmpty, vfs.ErrNoSpace, vfs.ErrBadFD, vfs.ErrInval, vfs.ErrReadOnly, vfs.ErrClosed} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	return "other: " + err.Error()
}

// accessSequences open one file through handles of different access
// modes, the weaker first, and record what each step returned. Every
// handle may do what its own mode allows, whatever the file's first
// opener asked for.
var accessSequences = []struct {
	name string
	run  func(t *testing.T, fs vfs.FileSystem, log func(string, error))
}{
	{"read-only, then truncate through O_RDWR", func(t *testing.T, fs vfs.FileSystem, log func(string, error)) {
		writeSynced(t, fs, "/a", bytes.Repeat([]byte{1}, 100))
		ro, err := fs.OpenFile("/a", vfs.O_RDONLY, 0)
		log("open ro", err)
		rw, err := fs.OpenFile("/a", vfs.O_RDWR, 0)
		log("open rw", err)
		if rw == nil || ro == nil {
			return
		}
		log("truncate", rw.Truncate(10))
		log("close rw", rw.Close())
		log("close ro", ro.Close())
		got, err := vfs.ReadFile(fs, "/a")
		log(fmt.Sprintf("reopen reads %d bytes", len(got)), err)
	}},
	{"write-only, then read a hole read-only", func(t *testing.T, fs vfs.FileSystem, log func(string, error)) {
		wo, err := fs.OpenFile("/b", vfs.O_WRONLY|vfs.O_CREATE, 0644)
		log("open wo", err)
		if wo == nil {
			return
		}
		_, err = wo.WriteAt(bytes.Repeat([]byte{2}, 100), 8192)
		log("write past a hole", err)
		log("sync", wo.Sync())
		ro, err := fs.OpenFile("/b", vfs.O_RDONLY, 0)
		log("open ro", err)
		if ro == nil {
			return
		}
		buf := bytes.Repeat([]byte{9}, 4096)
		n, err := ro.ReadAt(buf, 0)
		log(fmt.Sprintf("read hole: %d bytes, zero %v", n, bytes.Count(buf[:n], []byte{0}) == n), err)
		log("close ro", ro.Close())
		log("close wo", wo.Close())
	}},
	{"read-only, then append through O_RDWR|O_APPEND and sync", func(t *testing.T, fs vfs.FileSystem, log func(string, error)) {
		writeSynced(t, fs, "/c", bytes.Repeat([]byte{3}, 100))
		ro, err := fs.OpenFile("/c", vfs.O_RDONLY, 0)
		log("open ro", err)
		ap, err := fs.OpenFile("/c", vfs.O_RDWR|vfs.O_APPEND, 0)
		log("open append", err)
		if ro == nil || ap == nil {
			return
		}
		n, err := ap.Write(bytes.Repeat([]byte{4}, 5000))
		log(fmt.Sprintf("append %d bytes", n), err)
		log("sync", ap.Sync())
		log("close append", ap.Close())
		log("close ro", ro.Close())
		got, err := vfs.ReadFile(fs, "/c")
		log(fmt.Sprintf("reopen reads %d bytes", len(got)), err)
	}},
	{"offsets: write, seek at each whence, read, pread, append, read past EOF", func(t *testing.T, fs vfs.FileSystem, log func(string, error)) {
		f, err := fs.OpenFile("/d", vfs.O_RDWR|vfs.O_CREATE, 0644)
		log("open rw", err)
		if f == nil {
			return
		}
		n, err := f.Write(bytes.Repeat([]byte{5}, 300))
		log(fmt.Sprintf("write %d bytes", n), err)
		for _, s := range []struct {
			off    int64
			whence int
		}{{-100, vfs.SeekCur}, {10, vfs.SeekSet}, {-50, vfs.SeekEnd}} {
			pos, err := f.Seek(s.off, s.whence)
			log(fmt.Sprintf("seek %d whence %d to %d", s.off, s.whence, pos), err)
		}
		buf := make([]byte, 100)
		n, err = f.Read(buf)
		log(fmt.Sprintf("read %d bytes", n), err)
		n, err = f.ReadAt(buf, 0)
		log(fmt.Sprintf("pread %d bytes", n), err)
		pos, err := f.Seek(0, vfs.SeekCur)
		log(fmt.Sprintf("pread leaves the offset at %d", pos), err)
		ap, err := fs.OpenFile("/d", vfs.O_RDWR|vfs.O_APPEND, 0)
		log("open append", err)
		if ap == nil {
			return
		}
		n, err = ap.Write(bytes.Repeat([]byte{6}, 40))
		log(fmt.Sprintf("append %d bytes", n), err)
		pos, err = ap.Seek(0, vfs.SeekCur)
		log(fmt.Sprintf("append leaves the offset at %d", pos), err)
		n, err = ap.Read(buf)
		eof := err == io.EOF
		if eof {
			err = nil
		}
		log(fmt.Sprintf("read past end of file: %d bytes, EOF %v", n, eof), err)
		n, err = f.Read(buf)
		log(fmt.Sprintf("first handle reads the appended %d bytes, all 6s %v", n, bytes.Count(buf[:n], []byte{6}) == n), err)
		log("close append", ap.Close())
		log("close rw", f.Close())
	}},
}

// TestAccessModesPerHandle runs each sequence on every kind, direct and
// served, and requires ext4-dax's results step for step. U-Split serves
// every handle on an inode through one kernel handle; that handle must
// not carry the first opener's access mode, or a later writable handle's
// truncate fails and its fsync drops the data it was asked to make
// durable.
func TestAccessModesPerHandle(t *testing.T) {
	transcript := func(t *testing.T, name string, run func(*testing.T, vfs.FileSystem, func(string, error))) string {
		st, err := stack.New(name, stack.Small)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		run(t, st.FS, func(step string, err error) { fmt.Fprintf(&sb, "%s: %s\n", step, errClass(err)) })
		return sb.String()
	}
	for _, seq := range accessSequences {
		t.Run(seq.name, func(t *testing.T) {
			want := transcript(t, "ext4-dax", seq.run)
			if strings.Contains(want, ": other") || strings.Count(want, ": ok") != strings.Count(want, "\n") {
				t.Fatalf("ext4-dax itself fails a step:\n%s", want)
			}
			for _, kind := range stack.Kinds() {
				for _, name := range []string{kind, stack.Name(kind, true, false)} {
					if got := transcript(t, name, seq.run); got != want {
						t.Errorf("%s:\n%swant (ext4-dax):\n%s", name, got, want)
					}
				}
			}
		})
	}
}

// stackNames is every kind, direct and served: sixteen names.
func stackNames() []string {
	var names []string
	for _, kind := range stack.Kinds() {
		names = append(names, kind, stack.Name(kind, true, false))
	}
	return names
}

// closedHandleSteps opens /a in each access mode, closes the handle, and
// records what every later call on it returns.
func closedHandleSteps(t *testing.T, fs vfs.FileSystem, log func(string, error)) {
	writeSynced(t, fs, "/a", bytes.Repeat([]byte{1}, 100))
	for _, mode := range []struct {
		name string
		flag int
	}{{"ro", vfs.O_RDONLY}, {"wo", vfs.O_WRONLY}, {"rw", vfs.O_RDWR}, {"append", vfs.O_RDWR | vfs.O_APPEND}} {
		f, err := fs.OpenFile("/a", mode.flag, 0)
		log("open "+mode.name, err)
		if f == nil {
			continue
		}
		log("close "+mode.name, f.Close())
		buf := make([]byte, 10)
		_, err = f.Read(buf)
		log("  read", err)
		_, err = f.Write(buf)
		log("  write", err)
		_, err = f.ReadAt(buf, 0)
		log("  readat", err)
		_, err = f.WriteAt(buf, 0)
		log("  writeat", err)
		for _, whence := range []int{vfs.SeekSet, vfs.SeekCur, vfs.SeekEnd} {
			_, err = f.Seek(0, whence)
			log(fmt.Sprintf("  seek whence %d", whence), err)
		}
		log("  truncate", f.Truncate(0))
		log("  sync", f.Sync())
		_, err = f.Stat()
		log("  stat", err)
		log("  close again", f.Close())
	}
	got, err := vfs.ReadFile(fs, "/a")
	log(fmt.Sprintf("reopen reads %d bytes, unchanged %v", len(got), bytes.Equal(got, bytes.Repeat([]byte{1}, 100))), err)
}

// TestClosedHandlesAnswerErrClosed closes a handle of every access mode
// and requires each later call on it — every whence of Seek and a second
// Close included — to answer vfs.ErrClosed, as os.File does, on every
// kind direct and served, step for step as ext4-dax answers.
func TestClosedHandlesAnswerErrClosed(t *testing.T) {
	transcript := func(t *testing.T, name string) string {
		st, err := stack.New(name, stack.Small)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		closedHandleSteps(t, st.FS, func(step string, err error) { fmt.Fprintf(&sb, "%s: %s\n", step, errClass(err)) })
		return sb.String()
	}
	// stray returns the first step on a closed handle (indented) that
	// does not answer ErrClosed, or the first other step that fails.
	stray := func(transcript string) string {
		for _, line := range strings.Split(strings.TrimSpace(transcript), "\n") {
			want := ": ok"
			if strings.HasPrefix(line, "  ") {
				want = ": " + vfs.ErrClosed.Error()
			}
			if !strings.HasSuffix(line, want) {
				return line
			}
		}
		return ""
	}
	want := transcript(t, "ext4-dax")
	for _, name := range stackNames() {
		got := want
		if name != "ext4-dax" {
			got = transcript(t, name)
		}
		if line := stray(got); line != "" {
			t.Errorf("%s answers %q:\n%s", name, line, got)
		} else if got != want {
			t.Errorf("%s:\n%swant (ext4-dax):\n%s", name, got, want)
		}
	}
}

// TestAppendsThroughDistinctHandles has four goroutines append 100
// records of 100 B each, each through its own O_APPEND handle on one
// file. Every write must land at the end of file as it stands under the
// write, so the file keeps all 40 000 B, every record whole, each
// handle's records in order.
func TestAppendsThroughDistinctHandles(t *testing.T) {
	const handles, records, size = 4, 100, 100
	record := func(h, i int) []byte {
		r := bytes.Repeat([]byte{byte(h*31 + i*7 + 1)}, size)
		r[0], r[1] = byte(h), byte(i)
		return r
	}
	for _, name := range stackNames() {
		t.Run(name, func(t *testing.T) {
			st, err := stack.New(name, stack.Small)
			if err != nil {
				t.Fatal(err)
			}
			fs := st.FS
			writeSynced(t, fs, "/log", nil)
			files := make([]vfs.File, handles)
			for h := range files {
				if files[h], err = fs.OpenFile("/log", vfs.O_WRONLY|vfs.O_APPEND, 0); err != nil {
					t.Fatal(err)
				}
			}
			errs := make(chan error, handles)
			for h, f := range files {
				go func() {
					for i := range records {
						if n, err := f.Write(record(h, i)); err != nil || n != size {
							errs <- fmt.Errorf("handle %d record %d: wrote %d: %v", h, i, n, err)
							return
						}
					}
					errs <- nil
				}()
			}
			for range files {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
			for _, f := range files {
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			got, err := vfs.ReadFile(fs, "/log")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != handles*records*size {
				t.Fatalf("file is %d B, want %d", len(got), handles*records*size)
			}
			next := make([]int, handles)
			for off := 0; off < len(got); off += size {
				r := got[off : off+size]
				h, i := int(r[0]), int(r[1])
				if h >= handles || i != next[h] || !bytes.Equal(r, record(h, i)) {
					t.Fatalf("record at %d is not handle %d's record %d whole: % x", off, h, next[min(h, handles-1)], r[:8])
				}
				next[h]++
			}
		})
	}
}
