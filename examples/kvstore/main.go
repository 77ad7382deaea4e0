// kvstore: run the LevelDB-like LSM store over SplitFS and ext4 DAX and
// compare the simulated cost of a small YCSB-A-style workload — the
// paper's headline application scenario (§5.8).
package main

import (
	"fmt"
	"log"

	"splitfs/internal/apps/lsmkv"
	"splitfs/internal/sim"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
	"splitfs/internal/wl/ycsb"
)

func run(name string, fs vfs.FileSystem, clk *sim.Clock) {
	db, err := lsmkv.Open(fs, lsmkv.Options{MemtableBytes: 512 << 10})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	cfg := ycsb.Config{Records: 500, Operations: 1000, ValueBytes: 500}
	if _, err := ycsb.Load(db, cfg); err != nil {
		log.Fatal(err)
	}
	before := clk.Now()
	st, err := ycsb.Run(db, ycsb.A, cfg)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := clk.Now() - before
	fmt.Printf("%-14s YCSB-A: %d ops in %.2f ms simulated -> %.1f Kops/s\n",
		name, st.Ops(), float64(elapsed)/1e6,
		float64(st.Ops())/(float64(elapsed)/1e9)/1e3)
}

func main() {
	for _, kind := range []string{"splitfs-posix", "ext4-dax"} {
		st, err := stack.New(kind, stack.Spec{DevBytes: 512 << 20})
		if err != nil {
			log.Fatal(err)
		}
		run(kind, st.FS, st.Clock)
	}
}
