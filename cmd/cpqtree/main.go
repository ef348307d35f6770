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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/rtree"
	"repro/internal/storage"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind an exit code: 0 on success, 1 on a failed run or a
// broken invariant, 2 on a command line the flag package rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cpqtree", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		path     = fs.String("index", "", "index file to inspect (required)")
		pageSize = fs.Int("page-size", 1024, "page size the index was created with")
		dump     = fs.Bool("dump", false, "dump every node's entries")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cpqtree:", err)
		return 1
	}
	if *path == "" {
		return fail(errors.New("-index is required"))
	}

	file, err := storage.OpenDiskFile(*path, *pageSize)
	if err != nil {
		return fail(err)
	}
	defer file.Close()
	pool := storage.NewBufferPool(file, 256)
	tree, err := rtree.Open(pool)
	if err != nil {
		return fail(err)
	}

	cfg := tree.Config()
	fmt.Fprintf(stdout, "index:        %s\n", *path)
	fmt.Fprintf(stdout, "page size:    %d bytes (%d pages on disk)\n", cfg.PageSize, file.NumPages())
	fmt.Fprintf(stdout, "node fanout:  M=%d m=%d\n", cfg.MaxEntries, cfg.MinEntries)
	fmt.Fprintf(stdout, "points:       %d\n", tree.Len())
	fmt.Fprintf(stdout, "height:       %d\n", tree.Height())
	if b, err := tree.Bounds(); err == nil {
		fmt.Fprintf(stdout, "bounds:       %v\n", b)
	}
	counts, err := tree.NodeCount()
	if err != nil {
		return fail(err)
	}
	for lvl, c := range counts {
		kind := "internal"
		if lvl == 0 {
			kind = "leaf"
		}
		fmt.Fprintf(stdout, "level %d:      %d %s nodes\n", lvl, c, kind)
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
		return fail(err)
	}
	fmt.Fprintf(stdout, "leaves x-ordered: %d/%d\n", ordered, leaves)

	if err := tree.CheckInvariants(); err != nil {
		fmt.Fprintf(stdout, "invariants:   FAILED: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "invariants:   ok\n")

	if *dump {
		fmt.Fprintln(stdout)
		err := tree.Walk(func(n *rtree.Node) error {
			fmt.Fprintf(stdout, "page %d (level %d, %d entries):\n", n.ID, n.Level, len(n.Entries))
			for i, e := range n.Entries {
				if n.IsLeaf() {
					fmt.Fprintf(stdout, "  %3d: point %v ref=%d\n", i, e.Rect.Min, e.Ref)
				} else {
					fmt.Fprintf(stdout, "  %3d: child page %d mbr=%v\n", i, e.Child(), e.Rect)
				}
			}
			return nil
		})
		if err != nil {
			return fail(err)
		}
	}
	return 0
}
