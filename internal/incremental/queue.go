package incremental

// pq is a binary min-heap of queue items ordered by ascending distance
// key, with equal keys resolved depth-first and finally by insertion
// order (making runs deterministic).
type pq struct {
	items []item
}

func (q *pq) len() int { return len(q.items) }

// less implements the queue order.
func (q *pq) less(a, b *item) bool {
	if a.keySq != b.keySq {
		return a.keySq < b.keySq
	}
	if a.depth != b.depth {
		// Deeper pairs (smaller level; objects are -1) first.
		return a.depth < b.depth
	}
	return a.seq < b.seq
}

func (q *pq) push(x item) {
	q.items = append(q.items, x)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(&q.items[i], &q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *pq) pop() item {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	n := len(q.items)
	i := 0
	for {
		smallest := i
		if l := 2*i + 1; l < n && q.less(&q.items[l], &q.items[smallest]) {
			smallest = l
		}
		if r := 2*i + 2; r < n && q.less(&q.items[r], &q.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
