package splitfs

import (
	"bytes"
	"fmt"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Tests of how the staging pool spends PM and page faults (DESIGN.md,
// "Staging reservations"): oversized writes, tail give-back, chunk
// packing, and huge-page grants.

// pattern returns n bytes that differ block to block and within a block.
func pattern(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i>>12)*31 + byte(i)*7 + salt
	}
	return p
}

// stagingBlocksTaken is how far the pool has advanced through its staging
// files, in blocks: every file before the current one counts whole.
func stagingBlocksTaken(p *stagingPool) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.current == nil {
		return 0
	}
	perFile := p.fs.cfg.StagingFileBytes / sim.BlockSize
	return int64(p.current.id)*perFile + (p.current.tail+sim.BlockSize-1)/sim.BlockSize
}

// TestOversizedWriteSpansStagingFiles is the regression test for one
// write larger than a staging file (newEnv's are 2 MB): it used to fail
// with ENOSPC after sealing three untouched staging files.
func TestOversizedWriteSpansStagingFiles(t *testing.T) {
	for _, mode := range []Mode{POSIX, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			_, fs := newEnv(t, mode)
			f, err := vfs.Create(fs, "/big")
			if err != nil {
				t.Fatal(err)
			}
			// An unaligned head, so the pieces' block boundaries are not
			// the write's own.
			head := pattern(100, 1)
			big := pattern(5<<20, 2)
			if n, err := f.Write(head); n != len(head) || err != nil {
				t.Fatalf("head write = %d, %v", n, err)
			}
			if n, err := f.Write(big); n != len(big) || err != nil {
				t.Fatalf("5 MB write = %d, %v", n, err)
			}
			want := append(head, big...)
			check := func(when string, f vfs.File) {
				t.Helper()
				got := make([]byte, len(want))
				if n, err := f.ReadAt(got, 0); n != len(want) || err != nil {
					t.Fatalf("%s: ReadAt = %d, %v", when, n, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: content differs", when)
				}
			}
			check("staged", f)
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			check("after fsync", f)
			// Whole blocks were relinked, not copied: only the partial
			// first and last blocks go through the kernel.
			if st := fs.Stats(); st.CopiedBytes > 2*sim.BlockSize ||
				st.RelinkBlocks < int64(len(big))/sim.BlockSize-1 {
				t.Fatalf("relinked %d blocks, copied %d bytes", st.RelinkBlocks, st.CopiedBytes)
			}
			if info, _ := fs.kfs.Stat("/big"); info.Size != int64(len(want)) {
				t.Fatalf("kernel size after fsync = %d, want %d", info.Size, len(want))
			}
			// An oversized overwrite takes the same path in strict mode
			// (staged, exact reservations) and in-place stores in POSIX.
			copy(want[4096:], pattern(3<<20, 3))
			if n, err := f.WriteAt(want[4096:4096+3<<20], 4096); n != 3<<20 || err != nil {
				t.Fatalf("3 MB overwrite = %d, %v", n, err)
			}
			check("overwritten", f)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			g, err := vfs.Open(fs, "/big")
			if err != nil {
				t.Fatal(err)
			}
			check("reopened", g)
			g.Close()
		})
	}
}

// TestSmallFilesCostOneStagingBlock: a create + small write + fsync +
// close costs the staging pool the blocks the write touched, not a chunk,
// so the pre-allocated pool lasts for hundreds of creates per file
// instead of eight.
func TestSmallFilesCostOneStagingBlock(t *testing.T) {
	_, fs := newEnv(t, Sync) // 4 staging files of 2 MB, 256 KB chunks
	create := func(i int) {
		t.Helper()
		name := fmt.Sprintf("/small%03d", i%300) // later rounds truncate and rewrite
		f, err := vfs.Create(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		data := pattern(1+(i*977)%4096, byte(i))
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			if got, _ := vfs.ReadFile(fs, name); !bytes.Equal(got, data) {
				t.Fatalf("%s: content differs", name)
			}
		}
	}
	const n = 400 // fits the first staging file
	for i := 0; i < n; i++ {
		create(i)
	}
	if got := stagingBlocksTaken(fs.staging); got > n {
		t.Fatalf("%d small files took %d staging blocks, want at most one each", n, got)
	}
	// The initial pool (2048 blocks, less a chunk's worth stranded at the
	// end of each file) serves 1600 creates; whole chunks would last 32.
	for i := n; i < 1600; i++ {
		create(i)
	}
	if got := fs.StagingFilesCreated(); got != 0 {
		t.Fatalf("1600 small files outran the initial pool: %d staging files created", got)
	}
}

// TestInterleavedAppendersStayPacked: give-back must not cost two files
// appending in turn their packing — each keeps its chunk, and each fsync
// relinks its eight blocks as one run with no copy.
func TestInterleavedAppendersStayPacked(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	open := func(name string) *File {
		f, err := vfs.Create(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		return f.(*File)
	}
	files := []*File{open("/a"), open("/b")}
	var chunks [2]stagingChunk
	blk := pattern(sim.BlockSize, 9)
	const rounds, perSync = 6, 8
	for r := 0; r < rounds; r++ {
		for i := 0; i < perSync; i++ {
			for _, f := range files {
				if _, err := f.Write(blk); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k, f := range files {
			if r == 0 {
				chunks[k] = *f.of.active
			}
			if c := f.of.active; c.sf != chunks[k].sf || c.base != chunks[k].base {
				t.Fatalf("round %d: file %d changed chunks", r, k)
			}
			if len(f.of.staged) != 1 {
				t.Fatalf("round %d: file %d has %d staged runs before fsync, want 1", r, k, len(f.of.staged))
			}
			before := fs.Stats()
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			after := fs.Stats()
			if after.Relinks-before.Relinks != 1 || after.RelinkBlocks-before.RelinkBlocks != perSync ||
				after.CopiedBytes != 0 {
				t.Fatalf("round %d file %d: fsync did %d relinks of %d blocks, %d bytes copied in all",
					r, k, after.Relinks-before.Relinks, after.RelinkBlocks-before.RelinkBlocks, after.CopiedBytes)
			}
		}
	}
	chunkBlocks := fs.cfg.StagingChunkBytes / sim.BlockSize
	if got := stagingBlocksTaken(fs.staging); got != 2*chunkBlocks {
		t.Fatalf("two appenders hold %d staging blocks, want two chunks (%d)", got, 2*chunkBlocks)
	}
	// /b's chunk is the last reservation: closing it gives back what it
	// did not use. /a's is not, and keeps its tail.
	files[1].Close()
	if got, want := stagingBlocksTaken(fs.staging), chunkBlocks+rounds*perSync; got != want {
		t.Fatalf("after closing the last reservation the pool stands at %d blocks, want %d", got, want)
	}
	files[0].Close()
	if got, want := stagingBlocksTaken(fs.staging), chunkBlocks+rounds*perSync; got != want {
		t.Fatalf("closing an inner reservation moved the pool to %d blocks, want %d", got, want)
	}
	for _, name := range []string{"/a", "/b"} {
		got, err := vfs.ReadFile(fs, name)
		if err != nil || !bytes.Equal(got, bytes.Repeat(blk, rounds*perSync)) {
			t.Fatalf("%s: wrong content (%d bytes, %v)", name, len(got), err)
		}
	}
}

// TestChunkReplacementGivesBackFirst: when a write cannot continue the
// active chunk, the old chunk is released before the new one is
// reserved, so the new reservation starts where the old one's data ends.
func TestChunkReplacementGivesBackFirst(t *testing.T) {
	_, fs := newEnv(t, Strict)
	f, _ := vfs.Create(fs, "/f")
	of := f.(*File).of
	f.Write(pattern(2*sim.BlockSize, 1)) // append chunk, 2 blocks used
	first := *of.active
	f.WriteAt(pattern(100, 2), 0) // staged overwrite: exact reservation
	if *of.active == first {
		t.Fatal("test premise: the overwrite did not replace the chunk")
	}
	if want := first.base + 2*sim.BlockSize; of.active.sf != first.sf || of.active.base != want {
		t.Fatalf("replacement reserved at %d, want %d (behind the old chunk's data)", of.active.base, want)
	}
	if got := stagingBlocksTaken(fs.staging); got != 3 {
		t.Fatalf("pool stands at %d blocks, want 3", got)
	}
	want := pattern(2*sim.BlockSize, 1)
	copy(want, pattern(100, 2))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := vfs.ReadFile(fs, "/f"); !bytes.Equal(got, want) {
		t.Fatal("content differs")
	}
}

// TestGivenBackTailReuseSurvivesCrash: in strict mode a second file is
// staged into the tail a first file gave back; a crash right then must
// recover both — the first from its relinked blocks, the second by
// replaying its log entry against the reused staging blocks.
func TestGivenBackTailReuseSurvivesCrash(t *testing.T) {
	dev, fs := newEnv(t, Strict)
	first := pattern(sim.BlockSize+1000, 4) // two relinked blocks, the second partial
	fa, _ := vfs.Create(fs, "/first")
	if _, err := fa.Write(first); err != nil {
		t.Fatal(err)
	}
	chunk := *fa.(*File).of.active // the struct is the description's, which /second takes next
	if err := fa.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fa.Close(); err != nil {
		t.Fatal(err)
	}
	second := pattern(5000, 5)
	fb, _ := vfs.Create(fs, "/second")
	if _, err := fb.Write(second); err != nil {
		t.Fatal(err)
	}
	reused := fb.(*File).of.active
	if reused.sf != chunk.sf || reused.base != chunk.base+2*sim.BlockSize || reused.base >= chunk.end {
		t.Fatalf("second file staged at %d of file %d, want the given-back tail at %d of file %d",
			reused.base, reused.sf.id, chunk.base+2*sim.BlockSize, chunk.sf.id)
	}
	// No fsync of /second: its logged write is durable by itself.
	if err := dev.Crash(sim.NewRNG(14)); err != nil {
		t.Fatal(err)
	}
	kfs, _, err := ext4dax.Mount(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec, report, err := RecoverFS(kfs, Config{Mode: Strict, StagingFiles: 4,
		StagingFileBytes: 2 << 20, OpLogBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if report.Replayed == 0 {
		t.Fatalf("second file's write was not replayed: %+v", report)
	}
	for name, want := range map[string][]byte{"/first": first, "/second": second} {
		got, err := vfs.ReadFile(rec, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after recovery: %d bytes, %v; want %d intact", name, len(got), err, len(want))
		}
	}
}

// TestStagingFilesGetHugePages: on a fresh device every staging file is
// one 2 MB-aligned extent mapped with 2 MB pages and populated at two
// faults per 4 MB, and DisableHugePages is what turns that off.
func TestStagingFilesGetHugePages(t *testing.T) {
	const files, fileBytes = 3, 4 << 20
	build := func(disable bool) (*FS, int64) {
		clk := sim.NewClock()
		dev := pmem.New(pmem.Config{Size: 128 << 20, Clock: clk})
		kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := New(kfs, Config{StagingFiles: files, StagingFileBytes: fileBytes, DisableHugePages: disable})
		if err != nil {
			t.Fatal(err)
		}
		return fs, clk.Snapshot().ByCat[sim.CatPageFault]
	}
	fs, faultNs := build(false)
	for _, sf := range fs.staging.ready {
		devOff, contig, _ := sf.m.Translate(0, fileBytes)
		if !sf.m.Huge || sf.m.PageSize() != ext4dax.HugePageSize {
			t.Fatalf("staging file %d: Huge = %v, page size %d", sf.id, sf.m.Huge, sf.m.PageSize())
		}
		if devOff%ext4dax.HugePageSize != 0 || contig != fileBytes {
			t.Fatalf("staging file %d at device offset %d, %d contiguous", sf.id, devOff, contig)
		}
	}
	if want := int64(files * fileBytes / ext4dax.HugePageSize * sim.PageFault2M.Cost(1)); faultNs != want {
		t.Fatalf("populating %d huge staging files charged %d ns, want %d", files, faultNs, want)
	}
	// A file created when the pool runs dry is aligned and huge too, and
	// its population is the only page-fault cost of the reservation.
	clk := fs.clk
	for i := 0; i <= files; i++ {
		before := clk.Snapshot().ByCat[sim.CatPageFault]
		c, err := fs.staging.reserve(fileBytes-sim.BlockSize, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if !c.sf.m.Huge {
			t.Fatalf("reservation %d landed in a 4 KB-mapped staging file", i)
		}
		want := int64(0)
		if i == files {
			want = fileBytes / ext4dax.HugePageSize * sim.PageFault2M.Cost(1)
		}
		if got := clk.Snapshot().ByCat[sim.CatPageFault] - before; got != want {
			t.Fatalf("reservation %d charged %d ns of page faults, want %d", i, got, want)
		}
	}
	if fs.StagingFilesCreated() != 1 {
		t.Fatalf("created = %d, want 1", fs.StagingFilesCreated())
	}

	fs, faultNs = build(true)
	for _, sf := range fs.staging.ready {
		if sf.m.Huge || sf.m.PageSize() != sim.BlockSize {
			t.Fatalf("DisableHugePages: staging file %d mapped with %d-byte pages", sf.id, sf.m.PageSize())
		}
	}
	if want := int64(files * fileBytes / sim.BlockSize * sim.PageFault4K.Cost(1)); faultNs != want {
		t.Fatalf("populating %d 4 KB-mapped staging files charged %d ns, want %d", files, faultNs, want)
	}
}

// TestStagingFallsBackTo4KPagesWhenFragmented: with a pinned block in
// every 2 MB window of the device no aligned run exists; staging files
// are still created, from fragments, and mapped with 4 KB pages at the
// 4 KB price.
func TestStagingFallsBackTo4KPagesWhenFragmented(t *testing.T) {
	clk := sim.NewClock()
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: clk})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	pin, err := vfs.Create(kfs, "/pin")
	if err != nil {
		t.Fatal(err)
	}
	var fill []string
	for i := 0; kfs.FreeBlocks() > 512; i++ {
		name := fmt.Sprintf("/fill%d", i)
		f, err := vfs.Create(kfs, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.(*ext4dax.File).Preallocate(255, 0); err != nil {
			t.Fatal(err)
		}
		if err := pin.(*ext4dax.File).Preallocate(1, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		fill = append(fill, name)
	}
	for _, name := range fill {
		if err := kfs.Unlink(name); err != nil {
			t.Fatal(err)
		}
	}
	kfs.CommitMeta()

	const files, fileBytes = 2, 2 << 20
	before := clk.Snapshot().ByCat[sim.CatPageFault]
	fs, err := New(kfs, Config{StagingFiles: files, StagingFileBytes: fileBytes})
	if err != nil {
		t.Fatalf("staging pool on a fragmented device: %v", err)
	}
	for _, sf := range fs.staging.ready {
		if sf.m.Huge || sf.m.PageSize() != sim.BlockSize {
			t.Fatalf("staging file %d mapped huge on a device with no aligned run", sf.id)
		}
		if _, contig, _ := sf.m.Translate(0, fileBytes); contig >= fileBytes {
			t.Fatalf("test premise: staging file %d is one extent", sf.id)
		}
	}
	if got, want := clk.Snapshot().ByCat[sim.CatPageFault]-before, int64(files*fileBytes/sim.BlockSize*sim.PageFault4K.Cost(1)); got != want {
		t.Fatalf("4 KB population charged %d ns, want %d", got, want)
	}
	// Staging through the fragmented files works as ever.
	data := pattern(3*sim.BlockSize+17, 6)
	if err := vfs.WriteFile(fs, "/x", data); err != nil {
		t.Fatal(err)
	}
	if got, _ := vfs.ReadFile(fs, "/x"); !bytes.Equal(got, data) {
		t.Fatal("content differs")
	}
}
