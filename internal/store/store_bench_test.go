package store

import (
	"fmt"
	"testing"
)

// The layer benchmarks use only Open, Put and Get, so the same file runs
// against any store layout. Records are shaped like the engine's: a
// namespaced schedule key and a ~150-byte outcome.

func benchKey(i int) string {
	return fmt.Sprintf("o/3f9a2c71d04e8b65/(%d, %d, %d)", i%7+1, i/7%7+1, i/49)
}

var benchPayload = []byte(`{"pall_bits":4611686018427387904,"feasible":true,"periods":[1200,900,1500],"deadline_miss":false,"cost":0.8125,"evals":37}`)

// fill writes n records to a fresh store.
func fill(b *testing.B, n int) *Store {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Put(benchKey(i), benchPayload)
	}
	return s
}

// BenchmarkStorePut times one new record's Put.
func BenchmarkStorePut(b *testing.B) {
	s := fill(b, 0)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		s.Put(benchKey(i), benchPayload)
		i++
	}
}

// BenchmarkStoreGet times Gets that hit records written by another handle
// and Gets of absent keys.
func BenchmarkStoreGet(b *testing.B) {
	const n = 1000
	s := fill(b, n)
	r, err := Open(s.Root())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, ok := r.Get(benchKey(i % n)); !ok {
				b.Fatal("miss")
			}
			i++
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, ok := r.Get(benchKey(n + i)); ok {
				b.Fatal("hit")
			}
			i++
		}
	})
}

// BenchmarkStoreOpen times opening a warm 7.5k-record store.
func BenchmarkStoreOpen(b *testing.B) {
	s := fill(b, 7500)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Open(s.Root()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreOpenNamespaces times opening a warm store of 75
// 100-record evaluation namespaces (7.5k records, as BenchmarkStoreOpen),
// written two at a time with their records interleaved, as a two-worker
// sweep writes them: what the directory set adds to Open.
func BenchmarkStoreOpenNamespaces(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 7500; i++ {
		ns, j := i/200*2+i%2, i%200/2
		s.Put(fmt.Sprintf("o/%032x/(%d, %d, %d)", ns, j%7+1, j/7%7+1, j/49+1), benchPayload)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Open(s.Root()); err != nil {
			b.Fatal(err)
		}
	}
}
