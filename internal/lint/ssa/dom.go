package ssa

// Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm:
// simple, and on CFGs of this size (function bodies) effectively linear.

// Dom is the dominator tree of a Func, computed over the blocks
// reachable from Entry.
type Dom struct {
	f      *Func
	idom   map[*Block]*Block
	rpo    []*Block
	rpoNum map[*Block]int
}

// Dominators computes the dominator tree.
func (f *Func) Dominators() *Dom {
	d := &Dom{
		f:      f,
		idom:   make(map[*Block]*Block),
		rpoNum: make(map[*Block]int),
	}
	d.rpo = reversePostorder(f.Entry)
	for i, b := range d.rpo {
		d.rpoNum[b] = i
	}
	d.idom[f.Entry] = f.Entry
	for changed := true; changed; {
		changed = false
		for _, b := range d.rpo[1:] {
			var newIdom *Block
			for _, p := range b.Preds {
				if _, ok := d.idom[p]; !ok {
					continue // pred not yet processed (or unreachable)
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}
	return d
}

// intersect walks two blocks up the (partial) dominator tree to their
// common ancestor.
func (d *Dom) intersect(a, b *Block) *Block {
	for a != b {
		for d.rpoNum[a] > d.rpoNum[b] {
			a = d.idom[a]
		}
		for d.rpoNum[b] > d.rpoNum[a] {
			b = d.idom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b (reflexively). Unreachable
// blocks are dominated by nothing and dominate nothing but themselves.
func (d *Dom) Dominates(a, b *Block) bool {
	if a == b {
		return true
	}
	if _, ok := d.idom[b]; !ok {
		return false
	}
	for b != d.f.Entry {
		b = d.idom[b]
		if b == a {
			return true
		}
	}
	return false
}

// reversePostorder returns the blocks reachable from entry in reverse
// postorder of a depth-first search.
func reversePostorder(entry *Block) []*Block {
	var order []*Block
	seen := make(map[*Block]bool)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}
