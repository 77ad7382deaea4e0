package splitfs

import (
	"fmt"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/vfs"
)

// outgrowJournal leaves more dirty blocks in K-Split's running
// transaction than a 16-block journal can commit: directories made and
// filled below U-Split stay uncommitted (no fsync, and the caller's Mkfs
// put the note-count threshold out of the way), each dirtying a dirent
// block of its own. The next commit fails and consumes the transaction.
func outgrowJournal(t *testing.T, kfs *ext4dax.FS) {
	t.Helper()
	for i := 0; i < 24; i++ {
		dir := fmt.Sprintf("/d%02d", i)
		if err := kfs.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		x, err := vfs.Create(kfs, dir+"/x")
		if err != nil {
			t.Fatal(err)
		}
		x.Close()
	}
}
