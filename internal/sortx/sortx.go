// Package sortx provides the six comparison sorts the authors evaluated for
// the sorting phase of the Sorted Distances algorithm (paper footnote 2:
// Bubble-, Selection-, Insertion-, Heap-, Quick- and MergeSort; MergeSort
// was chosen for the best I/O and CPU cost and is the default here).
// Keeping the menu of sorts makes the choice reproducible as an ablation.
package sortx

import "fmt"

// Method selects a sorting algorithm.
type Method int

// The six candidate sorting methods.
const (
	Merge Method = iota
	Quick
	Heap
	Insertion
	Selection
	Bubble
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Merge:
		return "merge"
	case Quick:
		return "quick"
	case Heap:
		return "heap"
	case Insertion:
		return "insertion"
	case Selection:
		return "selection"
	case Bubble:
		return "bubble"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists all available methods, default first.
func Methods() []Method {
	return []Method{Merge, Quick, Heap, Insertion, Selection, Bubble}
}

// Sort sorts s in place into ascending order according to less, using the
// requested method. All methods produce a fully sorted slice; only their
// cost profiles differ. MergeSort (the default) is additionally stable.
func Sort[T any](s []T, less func(a, b T) bool, method Method) {
	SortBuf(s, nil, less, method)
}

// SortBuf is Sort with a caller-owned merge buffer. MergeSort needs len(s)
// elements of working space, which Sort allocates on every call; SortBuf
// takes them from buf, grown when too small, and returns buf for the next
// call, so a caller that sorts many short lists allocates once. The other
// methods sort in place and return buf as given. The order produced is
// Sort's.
func SortBuf[T any](s, buf []T, less func(a, b T) bool, method Method) []T {
	switch method {
	case Merge:
		if len(s) < 2 {
			return buf
		}
		if cap(buf) < len(s) {
			buf = make([]T, len(s))
		}
		mergeSortRec(s, buf[:len(s)], less)
	case Quick:
		quickSort(s, less, 0, len(s)-1)
	case Heap:
		heapSort(s, less)
	case Insertion:
		insertionSort(s, less)
	case Selection:
		selectionSort(s, less)
	case Bubble:
		bubbleSort(s, less)
	default:
		panic(fmt.Sprintf("sortx: unknown method %d", int(method)))
	}
	return buf
}

func mergeSortRec[T any](s, buf []T, less func(a, b T) bool) {
	if len(s) < 2 {
		return
	}
	mid := len(s) / 2
	mergeSortRec(s[:mid], buf[:mid], less)
	mergeSortRec(s[mid:], buf[mid:], less)
	copy(buf, s)
	i, j := 0, mid
	for k := 0; k < len(s); k++ {
		switch {
		case i >= mid:
			s[k] = buf[j]
			j++
		case j >= len(s):
			s[k] = buf[i]
			i++
		case less(buf[j], buf[i]): // strict: keeps the sort stable
			s[k] = buf[j]
			j++
		default:
			s[k] = buf[i]
			i++
		}
	}
}

func quickSort[T any](s []T, less func(a, b T) bool, lo, hi int) {
	for lo < hi {
		if hi-lo < 12 {
			insertionSort(s[lo:hi+1], less)
			return
		}
		// Median-of-three pivot to dodge the sorted-input worst case,
		// which matters because STD often sorts nearly-sorted pair lists.
		mid := lo + (hi-lo)/2
		if less(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if less(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if less(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for less(s[i], pivot) {
				i++
			}
			for less(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, iterate on the larger.
		if j-lo < hi-i {
			quickSort(s, less, lo, j)
			lo = i
		} else {
			quickSort(s, less, i, hi)
			hi = j
		}
	}
}

func heapSort[T any](s []T, less func(a, b T) bool) {
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(s, less, i, n)
	}
	for end := n - 1; end > 0; end-- {
		s[0], s[end] = s[end], s[0]
		siftDown(s, less, 0, end)
	}
}

func siftDown[T any](s []T, less func(a, b T) bool, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && less(s[child], s[child+1]) {
			child++
		}
		if !less(s[root], s[child]) {
			return
		}
		s[root], s[child] = s[child], s[root]
		root = child
	}
}

func insertionSort[T any](s []T, less func(a, b T) bool) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && less(v, s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func selectionSort[T any](s []T, less func(a, b T) bool) {
	for i := 0; i < len(s)-1; i++ {
		min := i
		for j := i + 1; j < len(s); j++ {
			if less(s[j], s[min]) {
				min = j
			}
		}
		s[i], s[min] = s[min], s[i]
	}
}

func bubbleSort[T any](s []T, less func(a, b T) bool) {
	for n := len(s); n > 1; {
		last := 0
		for i := 1; i < n; i++ {
			if less(s[i], s[i-1]) {
				s[i-1], s[i] = s[i], s[i-1]
				last = i
			}
		}
		n = last
	}
}
