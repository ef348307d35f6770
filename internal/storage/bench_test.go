package storage

import "testing"

func BenchmarkBufferGetHit(b *testing.B) {
	f := NewMemFile(1024)
	id, _ := f.Allocate()
	p := NewBufferPool(f, 16)
	if _, err := p.Get(id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Get(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBufferGetMiss(b *testing.B) {
	f := NewMemFile(1024)
	for i := 0; i < 1024; i++ {
		f.Allocate()
	}
	p := NewBufferPool(f, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Get(PageID(i % 1024)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBufferViewHitParallel reads resident pages through View from
// GOMAXPROCS goroutines at once on a one-shard pool: the table probe, the
// LRU touch and the hit count under the lock every reader shares, as a
// parallel query's workers pay them. Run it at -cpu 1,2 to see what the
// second reader costs.
func BenchmarkBufferViewHitParallel(b *testing.B) {
	const pages = 4096
	f := NewMemFile(1024)
	for i := 0; i < pages; i++ {
		if _, err := f.Allocate(); err != nil {
			b.Fatal(err)
		}
	}
	p := NewBufferPool(f, pages)
	read := func([]byte) error { return nil }
	for id := PageID(0); id < pages; id++ {
		if err := p.View(id, read); err != nil {
			b.Fatal(err)
		}
	}
	p.ResetStats()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if err := p.View(PageID(i*7%pages), read); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if st := p.Stats(); st.Reads != 0 {
		b.Fatalf("reads = %d, want 0: every view is a hit", st.Reads)
	}
}
