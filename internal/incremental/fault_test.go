package incremental

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// pollCountCtx is a context whose Err counts its calls and reports
// context.Canceled from call fireAt on (never when fireAt < 0).
type pollCountCtx struct {
	context.Context
	fireAt int64
	calls  atomic.Int64
}

func (c *pollCountCtx) Err() error {
	if n := c.calls.Add(1) - 1; c.fireAt >= 0 && n >= c.fireAt {
		return context.Canceled
	}
	return nil
}

// TestFailedNextIsSticky: a read that fails once ends the join. The pair
// whose nodes the failed read was fetching has left the queue, so a later
// Next that went on would answer from a queue missing that subtree.
func TestFailedNextIsSticky(t *testing.T) {
	ta, fa := buildFaultTree(t, uniformPoints(7, 400, 0))
	tb, _ := buildFaultTree(t, uniformPoints(8, 400, 0.5))
	it, err := New(ta, tb, Options{Traversal: Simultaneous, MaxK: 50})
	if err != nil {
		t.Fatal(err)
	}
	fa.FailReadAfter(3)
	var first error
	for first == nil {
		_, ok, err := it.Next()
		if !ok && err == nil {
			t.Fatal("join ended before the fourth read of P")
		}
		first = err
	}
	fa.FailReadAfter(-1)
	if !errors.Is(first, storage.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", first)
	}
	for i := 0; i < 3; i++ {
		if p, ok, err := it.Next(); ok || err != first {
			t.Fatalf("Next after the error: pair %+v ok=%v err=%v, want the first error again", p, ok, err)
		}
	}
}

// TestJoinFaultSweep fails every golden case, on smaller trees, at every
// step it has: the N-th page read of either tree for every N up to the
// case's read count, and the N-th context poll for every poll it makes.
// Each run must return the injected error (or finish, having read no more
// than N pages, with the right pairs) or context.Canceled, never a wrong
// pair; the error must stay on the iterator, and a fresh join after each
// sweep must return the undisturbed answer. A join under a live context
// returns what one without a context does, counters included.
func TestJoinFaultSweep(t *testing.T) {
	for _, c := range goldenCases(goldenShapes(t, 150, 6, 40)) {
		want, wantStats, err := c.run(New)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		// run starts c under ctx, and checks that an error it returns
		// stays on the iterator.
		run := func(label string, ctx context.Context) ([]core.Pair, Stats, error) {
			t.Helper()
			var it *Iterator
			pairs, stats, err := c.run(func(ta, tb *rtree.Tree, opts Options) (*Iterator, error) {
				var err error
				it, err = NewContext(ctx, ta, tb, opts)
				return it, err
			})
			if err != nil && it != nil {
				if _, ok, again := it.Next(); ok || again != err {
					t.Fatalf("%v: %s: Next after %v: ok=%v err=%v", c, label, err, ok, again)
				}
			}
			return pairs, stats, err
		}
		// fresh checks that a join after a failed one is undisturbed.
		fresh := func(label string) {
			t.Helper()
			got, _, err := c.run(New)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: %s: next join: err=%v, pairs differ=%v", c, label, err, !reflect.DeepEqual(got, want))
			}
		}

		live := &pollCountCtx{Context: context.Background(), fireAt: -1}
		got, stats, err := run("live context", live)
		if err != nil || !reflect.DeepEqual(got, want) || stats != wantStats {
			t.Fatalf("%v: under a live context: err=%v stats=%+v, want %+v", c, err, stats, wantStats)
		}
		polls := live.calls.Load()
		if polls < 1 || polls > wantStats.Popped/cancelStride+1 {
			t.Fatalf("%v: %d polls over %d pops", c, polls, wantStats.Popped)
		}
		for n := int64(0); n < polls; n++ {
			label := fmt.Sprintf("poll %d of %d cancels", n, polls)
			if _, _, err := run(label, &pollCountCtx{Context: context.Background(), fireAt: n}); !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: %s: err = %v, want context.Canceled", c, label, err)
			}
		}
		fresh("after the poll sweep")

		for _, s := range []struct {
			name  string
			ff    *storage.FaultFile
			reads func(Stats) int64
		}{
			{"P", c.shape.fa, func(s Stats) int64 { return s.IOP.Reads }},
			{"Q", c.shape.fb, func(s Stats) int64 { return s.IOQ.Reads }},
		} {
			total := s.reads(wantStats)
			for n := int64(0); n <= total; n++ {
				label := fmt.Sprintf("read %d of %s's %d fails", n, s.name, total)
				s.ff.FailReadAfter(n)
				got, stats, err := run(label, context.Background())
				s.ff.FailReadAfter(-1)
				switch {
				case err != nil && !errors.Is(err, storage.ErrInjected):
					t.Fatalf("%v: %s: err = %v, want ErrInjected", c, label, err)
				case err == nil && (s.reads(stats) > n || !reflect.DeepEqual(got, want)):
					t.Fatalf("%v: %s: succeeded after %d reads, pairs differ=%v", c, label, s.reads(stats), !reflect.DeepEqual(got, want))
				}
			}
			fresh("after the read sweep of " + s.name)
		}
	}
}
