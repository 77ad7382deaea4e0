// Package utilsim reproduces the access patterns of the paper's three
// metadata-heavy utilities (§5.2, §5.9):
//
//   - git: "git add" + "git commit" of a source tree — content hashing,
//     many small object files created under fanout directories, index and
//     ref updates. The paper's worst case for SplitFS (≤15% slowdown).
//   - tar: archive a tree — sequential reads of many files, one large
//     sequential append stream with 512-byte headers.
//   - rsync: copy a tree — per-file read + write + fsync, pattern of the
//     paper's 7 GB backup-dataset copy (scaled).
package utilsim

import (
	"encoding/binary"
	"fmt"

	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TreeConfig describes the synthetic source tree.
type TreeConfig struct {
	// Dirs and FilesPerDir shape the tree (defaults 8 x 16).
	Dirs        int
	FilesPerDir int
	// FileBytes is the mean file size (default 8 KB; sizes vary 0.5x-1.5x).
	FileBytes int
	// Seed drives deterministic content.
	Seed uint64
}

func (c *TreeConfig) fill() {
	if c.Dirs == 0 {
		c.Dirs = 8
	}
	if c.FilesPerDir == 0 {
		c.FilesPerDir = 16
	}
	if c.FileBytes == 0 {
		c.FileBytes = 8 << 10
	}
	if c.Seed == 0 {
		c.Seed = 123
	}
}

// MakeTree creates the source tree under root and returns the file paths.
func MakeTree(fs vfs.FileSystem, root string, cfg TreeConfig) ([]string, error) {
	cfg.fill()
	rng := sim.NewRNG(cfg.Seed)
	if err := fs.Mkdir(root, 0755); err != nil {
		return nil, err
	}
	var paths []string
	for d := 0; d < cfg.Dirs; d++ {
		dir := fmt.Sprintf("%s/dir%03d", root, d)
		if err := fs.Mkdir(dir, 0755); err != nil {
			return nil, err
		}
		for i := 0; i < cfg.FilesPerDir; i++ {
			p := fmt.Sprintf("%s/src%04d.c", dir, i)
			n := cfg.FileBytes/2 + rng.Intn(cfg.FileBytes)
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(rng.Uint64())
			}
			if err := vfs.WriteFile(fs, p, data); err != nil {
				return nil, err
			}
			paths = append(paths, p)
		}
	}
	return paths, nil
}

// GitAddCommit simulates "git add -A && git commit" over the tree:
// every file is read and hashed, an object file is written under a
// two-character fanout directory, then tree/commit objects and ref
// updates finish the commit. Returns the number of objects written.
func GitAddCommit(fs vfs.FileSystem, root, gitDir string, paths []string, round int) (int, error) {
	objDir := gitDir + "/objects"
	for _, d := range []string{gitDir, objDir} {
		if err := fs.Mkdir(d, 0755); err != nil && !exists(fs, d) {
			return 0, err
		}
	}
	objects := 0
	var indexPayload []byte
	for _, p := range paths {
		data, err := vfs.ReadFile(fs, p)
		if err != nil {
			return objects, err
		}
		h := sim.FNV1a(sim.FNVOffset^uint64(round), data)
		fan := fmt.Sprintf("%s/%02x", objDir, byte(h))
		if err := fs.Mkdir(fan, 0755); err != nil && !exists(fs, fan) {
			return objects, err
		}
		objPath := fmt.Sprintf("%s/%016x", fan, h)
		if !exists(fs, objPath) {
			// "Compress" to ~60% and write the loose object. git does not
			// fsync loose objects; durability comes from the eventual ref
			// update. This create-write-close pattern with no fsync is
			// what makes git SplitFS's worst case (§5.9).
			of, err := vfs.Create(fs, objPath)
			if err != nil {
				return objects, err
			}
			if _, err := of.Write(data[:len(data)*6/10]); err != nil {
				of.Close()
				return objects, err
			}
			if err := of.Close(); err != nil {
				return objects, err
			}
			objects++
		}
		var rec [24]byte
		binary.LittleEndian.PutUint64(rec[0:8], h)
		indexPayload = append(indexPayload, rec[:]...)
		indexPayload = append(indexPayload, p...)
	}
	// Index rewrite (git writes a new index then renames it).
	if err := vfs.WriteFile(fs, gitDir+"/index.tmp", indexPayload); err != nil {
		return objects, err
	}
	if err := fs.Rename(gitDir+"/index.tmp", gitDir+"/index"); err != nil {
		return objects, err
	}
	// Tree + commit objects and ref update.
	commitFan := fmt.Sprintf("%s/%02x", objDir, round%256)
	if err := fs.Mkdir(commitFan, 0755); err != nil && !exists(fs, commitFan) {
		return objects, err
	}
	commit := fmt.Sprintf("%s/commit-%06d", commitFan, round)
	if err := vfs.WriteFile(fs, commit, indexPayload[:min(256, len(indexPayload))]); err != nil {
		return objects, err
	}
	if err := vfs.WriteFile(fs, gitDir+"/HEAD", []byte(commit)); err != nil {
		return objects, err
	}
	logf, err := fs.OpenFile(gitDir+"/log", vfs.O_RDWR|vfs.O_CREATE|vfs.O_APPEND, 0644)
	if err != nil {
		return objects, err
	}
	logf.Write([]byte(commit + "\n"))
	logf.Sync()
	logf.Close()
	return objects, nil
}

// Tar archives the tree into one file: sequential whole-file reads,
// 512-byte headers, data rounded to 512-byte blocks, one fsync at the
// end. Returns the archive size.
func Tar(fs vfs.FileSystem, archive string, paths []string) (int64, error) {
	out, err := fs.OpenFile(archive, vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC, 0644)
	if err != nil {
		return 0, err
	}
	defer out.Close()
	var total int64
	hdr := make([]byte, 512)
	for _, p := range paths {
		data, err := vfs.ReadFile(fs, p)
		if err != nil {
			return total, err
		}
		copy(hdr, p)
		binary.LittleEndian.PutUint64(hdr[256:264], uint64(len(data)))
		if _, err := out.Write(hdr); err != nil {
			return total, err
		}
		pad := (512 - len(data)%512) % 512
		if _, err := out.Write(append(data, make([]byte, pad)...)); err != nil {
			return total, err
		}
		total += 512 + int64(len(data)+pad)
	}
	if err := out.Sync(); err != nil {
		return total, err
	}
	return total, nil
}

// Rsync copies the tree file by file into dstRoot, fsyncing each file
// (rsync's default safe copy: write temp, fsync, rename).
func Rsync(fs vfs.FileSystem, srcRoot, dstRoot string, paths []string) (int64, error) {
	if err := fs.Mkdir(dstRoot, 0755); err != nil && !exists(fs, dstRoot) {
		return 0, err
	}
	var total int64
	madeDirs := map[string]bool{}
	for _, p := range paths {
		data, err := vfs.ReadFile(fs, p)
		if err != nil {
			return total, err
		}
		rel := p[len(srcRoot):]
		dst := dstRoot + rel
		dir, _ := vfs.SplitDir(dst)
		if !madeDirs[dir] {
			if err := fs.Mkdir(dir, 0755); err != nil && !exists(fs, dir) {
				return total, err
			}
			madeDirs[dir] = true
		}
		tmp := dst + ".tmp"
		if err := vfs.WriteFile(fs, tmp, data); err != nil {
			return total, err
		}
		if err := fs.Rename(tmp, dst); err != nil {
			return total, err
		}
		total += int64(len(data))
	}
	return total, nil
}

func exists(fs vfs.FileSystem, p string) bool {
	_, err := fs.Stat(p)
	return err == nil
}
