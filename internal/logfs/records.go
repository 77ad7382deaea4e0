package logfs

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"splitfs/internal/alloc"
)

// Metadata record opcodes.
const (
	opCreate byte = iota + 1
	opMkdir
	opUnlink
	opRmdir
	opRename
	opWrite    // extent remap: logical range now backed by new extents
	opTruncate // size change; extents beyond are dropped
	opSetSize  // size-only change (in-place extension)
)

// Record encoding helpers. Records are compact little-endian blobs; the
// common case (opWrite with one extent) fits the 48-byte single-cache-
// line payload budget.

type recWriter struct{ buf bytes.Buffer }

func (w *recWriter) b(v byte) { w.buf.WriteByte(v) }
func (w *recWriter) u64(v uint64) {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	w.buf.Write(t[:])
}
func (w *recWriter) i64(v int64) { w.u64(uint64(v)) }
func (w *recWriter) str(s string) {
	var t [2]byte
	binary.LittleEndian.PutUint16(t[:], uint16(len(s)))
	w.buf.Write(t[:])
	w.buf.WriteString(s)
}
func (w *recWriter) bytes() []byte { return w.buf.Bytes() }

type recReader struct {
	buf []byte
	off int
}

func (r *recReader) b() byte { v := r.buf[r.off]; r.off++; return v }
func (r *recReader) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}
func (r *recReader) i64() int64 { return int64(r.u64()) }
func (r *recReader) str() string {
	n := int(binary.LittleEndian.Uint16(r.buf[r.off:]))
	r.off += 2
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func encCreate(ino uint64, isDir bool, path string) []byte {
	var w recWriter
	if isDir {
		w.b(opMkdir)
	} else {
		w.b(opCreate)
	}
	w.u64(ino)
	w.str(path)
	return w.bytes()
}

func encUnlink(path string, isDir bool) []byte {
	var w recWriter
	if isDir {
		w.b(opRmdir)
	} else {
		w.b(opUnlink)
	}
	w.str(path)
	return w.bytes()
}

func encRename(oldPath, newPath string) []byte {
	var w recWriter
	w.b(opRename)
	w.str(oldPath)
	w.str(newPath)
	return w.bytes()
}

func encWrite(ino uint64, newSize, logical int64, exts []alloc.Extent) []byte {
	var w recWriter
	w.b(opWrite)
	w.u64(ino)
	w.i64(newSize)
	w.i64(logical)
	w.b(byte(len(exts)))
	for _, e := range exts {
		w.i64(e.Start)
		w.i64(e.Len)
	}
	return w.bytes()
}

func encTruncate(ino uint64, size int64) []byte {
	var w recWriter
	w.b(opTruncate)
	w.u64(ino)
	w.i64(size)
	return w.bytes()
}

func encSetSize(ino uint64, size int64) []byte {
	var w recWriter
	w.b(opSetSize)
	w.u64(ino)
	w.i64(size)
	return w.bytes()
}

// replay applies one record during Mount. Data blocks referenced by
// opWrite already contain their data (it was written before the record
// was logged), so replay is metadata-only. Caller holds fs.mu (mount is
// single-threaded).
func (fs *FS) replay(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("logfs: empty record")
	}
	r := &recReader{buf: rec}
	switch op := r.b(); op {
	case opCreate, opMkdir:
		ino := r.u64()
		path := r.str()
		parent, base, err := fs.resolveDir(path)
		if err != nil {
			return fmt.Errorf("logfs replay create %s: %w", path, err)
		}
		in := &inode{ino: ino, isDir: op == opMkdir, nlink: 1}
		if in.isDir {
			in.nlink = 2
			in.children = map[string]*inode{}
			parent.nlink++
		}
		parent.children[base] = in
		fs.inodes[ino] = in
		if ino >= fs.nextIno {
			fs.nextIno = ino + 1
		}
	case opUnlink, opRmdir:
		path := r.str()
		parent, base, err := fs.resolveDir(path)
		if err != nil {
			return fmt.Errorf("logfs replay unlink %s: %w", path, err)
		}
		in := parent.children[base]
		if in != nil {
			delete(fs.inodes, in.ino)
			if in.isDir {
				parent.nlink--
			}
		}
		delete(parent.children, base)
	case opRename:
		oldPath := r.str()
		newPath := r.str()
		op2, ob, err := fs.resolveDir(oldPath)
		if err != nil {
			return err
		}
		np, nb, err := fs.resolveDir(newPath)
		if err != nil {
			return err
		}
		in := op2.children[ob]
		if in == nil {
			return fmt.Errorf("logfs replay rename: %s missing", oldPath)
		}
		if victim, ok := np.children[nb]; ok && !victim.isDir {
			delete(fs.inodes, victim.ino)
		}
		delete(op2.children, ob)
		np.children[nb] = in
	case opWrite:
		ino := r.u64()
		newSize := r.i64()
		logical := r.i64()
		n := int(r.b())
		in := fs.inodes[ino]
		if in == nil {
			return fmt.Errorf("logfs replay write: ino %d missing", ino)
		}
		var total int64
		exts := make([]alloc.Extent, n)
		for i := range exts {
			exts[i] = alloc.Extent{Start: r.i64(), Len: r.i64()}
			total += exts[i].Len
		}
		// Remap: drop whatever backed the logical range, then insert.
		in.extents.Extract(nil, logical, total)
		place := logical
		for _, e := range exts {
			in.extents.Insert(place, e)
			place += e.Len
		}
		if newSize > in.size {
			in.size = newSize
		}
	case opTruncate:
		ino := r.u64()
		size := r.i64()
		in := fs.inodes[ino]
		if in == nil {
			return fmt.Errorf("logfs replay truncate: ino %d missing", ino)
		}
		shrinkTo(in, size)
	case opSetSize:
		ino := r.u64()
		size := r.i64()
		in := fs.inodes[ino]
		if in == nil {
			return fmt.Errorf("logfs replay setsize: ino %d missing", ino)
		}
		in.size = size
	default:
		return fmt.Errorf("logfs: unknown record op %d", op)
	}
	return nil
}

// encodeState serializes the whole tree for a checkpoint snapshot.
func encodeState(fs *FS) []byte {
	var w recWriter
	w.u64(fs.nextIno)
	var walk func(path string, in *inode)
	walk = func(path string, in *inode) {
		w.u64(in.ino)
		if in.isDir {
			w.b(1)
		} else {
			w.b(0)
		}
		w.str(path)
		w.i64(in.size)
		w.u64(uint64(len(in.extents)))
		for _, e := range in.extents {
			w.i64(e.Logical)
			w.i64(e.Phys.Start)
			w.i64(e.Phys.Len)
		}
		if in.isDir {
			for name, child := range in.children {
				walk(path+"/"+name, child)
			}
		}
	}
	// Root is implicit; walk its children.
	for name, child := range fs.root.children {
		walk("/"+name, child)
	}
	return w.bytes()
}

// decodeState rebuilds the tree from a snapshot.
func decodeState(fs *FS, state []byte) error {
	fs.root = &inode{ino: 1, isDir: true, nlink: 2, children: map[string]*inode{}}
	fs.inodes = map[uint64]*inode{1: fs.root}
	fs.nextIno = 2
	if len(state) == 0 {
		return nil
	}
	r := &recReader{buf: state}
	fs.nextIno = r.u64()
	for r.off < len(state) {
		ino := r.u64()
		isDir := r.b() == 1
		path := r.str()
		size := r.i64()
		n := int(r.u64())
		in := &inode{ino: ino, isDir: isDir, nlink: 1, size: size}
		if isDir {
			in.nlink = 2
			in.children = map[string]*inode{}
		}
		for i := 0; i < n; i++ {
			logical := r.i64()
			start := r.i64()
			ln := r.i64()
			in.extents = append(in.extents, alloc.FileExtent{Logical: logical,
				Phys: alloc.Extent{Start: start, Len: ln}})
		}
		parent, base, err := fs.resolveDir(path)
		if err != nil {
			return fmt.Errorf("logfs snapshot decode %s: %w", path, err)
		}
		parent.children[base] = in
		if isDir {
			parent.nlink++
		}
		fs.inodes[ino] = in
	}
	return nil
}
