// Command cpqtree inspects an on-disk index created with the library's
// WithPath option: it prints the tree's shape, validates its structural
// invariants, and can dump node contents level by level.
//
// Usage:
//
//	cpqtree -index points.idx              # summary + invariant check
//	cpqtree -index points.idx -dump        # also dump every node
//	cpqtree -index points.idx -page-size 1024
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/rtree"
	"repro/internal/storage"
)

func main() {
	var (
		path     = flag.String("index", "", "index file to inspect (required)")
		pageSize = flag.Int("page-size", 1024, "page size the index was created with")
		dump     = flag.Bool("dump", false, "dump every node's entries")
	)
	flag.Parse()
	if *path == "" {
		fatal(fmt.Errorf("-index is required"))
	}

	file, err := storage.OpenDiskFile(*path, *pageSize)
	if err != nil {
		fatal(err)
	}
	defer file.Close()
	pool := storage.NewBufferPool(file, 256)
	tree, err := rtree.Open(pool)
	if err != nil {
		fatal(err)
	}

	cfg := tree.Config()
	fmt.Printf("index:        %s\n", *path)
	fmt.Printf("page size:    %d bytes (%d pages on disk)\n", cfg.PageSize, file.NumPages())
	fmt.Printf("node fanout:  M=%d m=%d\n", cfg.MaxEntries, cfg.MinEntries)
	fmt.Printf("points:       %d\n", tree.Len())
	fmt.Printf("height:       %d\n", tree.Height())
	if b, err := tree.Bounds(); err == nil {
		fmt.Printf("bounds:       %v\n", b)
	}
	counts, err := tree.NodeCount()
	if err != nil {
		fatal(err)
	}
	for lvl, c := range counts {
		kind := "internal"
		if lvl == 0 {
			kind = "leaf"
		}
		fmt.Printf("level %d:      %d %s nodes\n", lvl, c, kind)
	}

	// Leaves are written x-ordered so the closest-pair leaf scan need not
	// sort them; an index written before that is valid and merely slower.
	var leaves, ordered int
	err = tree.Walk(func(n *rtree.Node) error {
		if n.IsLeaf() {
			leaves++
			if rtree.LeafOrdered(n.Entries) {
				ordered++
			}
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("leaves x-ordered: %d/%d\n", ordered, leaves)

	if err := tree.CheckInvariants(); err != nil {
		fmt.Printf("invariants:   FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("invariants:   ok\n")

	if *dump {
		fmt.Println()
		err := tree.Walk(func(n *rtree.Node) error {
			fmt.Printf("page %d (level %d, %d entries):\n", n.ID, n.Level, len(n.Entries))
			for i, e := range n.Entries {
				if n.IsLeaf() {
					fmt.Printf("  %3d: point %v ref=%d\n", i, e.Rect.Min, e.Ref)
				} else {
					fmt.Printf("  %3d: child page %d mbr=%v\n", i, e.Child(), e.Rect)
				}
			}
			return nil
		})
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpqtree:", err)
	os.Exit(1)
}
