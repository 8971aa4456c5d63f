package evalcache

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

type tkey = StringKey

// memBackend is an in-memory Backend with fault injection.
type memBackend struct {
	mu      sync.Mutex
	m       map[string][]byte
	gets    int
	puts    int
	garbage bool // serve undecodable payloads
}

func newMemBackend() *memBackend { return &memBackend{m: map[string][]byte{}} }

func (b *memBackend) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	if b.garbage {
		return []byte("not json"), true
	}
	data, ok := b.m[key]
	return data, ok
}

func (b *memBackend) Put(key string, payload []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.puts++
	b.m[key] = append([]byte(nil), payload...)
}

func intCodec() Codec[int] {
	return Codec[int]{
		Encode: func(v int) ([]byte, error) { return json.Marshal(v) },
		Decode: func(data []byte) (int, error) {
			var v int
			err := json.Unmarshal(data, &v)
			return v, err
		},
	}
}

func TestTieredWritesThroughAndLoads(t *testing.T) {
	backend := newMemBackend()
	execs := 0
	eval := func(k tkey) (int, error) { execs++; return len(k), nil }

	warm := NewTiered(eval, backend, "ns/", intCodec())
	v, charged, err := warm.Get(tkey("abc"))
	if err != nil || v != 3 || !charged {
		t.Fatalf("cold Get = (%d, %v, %v)", v, charged, err)
	}
	if execs != 1 {
		t.Fatalf("execs = %d, want 1", execs)
	}
	if _, ok := backend.m["ns/abc"]; !ok {
		t.Fatalf("backend not written through; keys %v", backend.m)
	}

	// A second cache instance sharing the backend simulates a new process
	// on a warm store: the value loads without executing the evaluator,
	// but the lookup is still charged like an execution so evaluation
	// attribution is identical cold and warm.
	second := NewTiered(eval, backend, "ns/", intCodec())
	v, charged, err = second.Get(tkey("abc"))
	if err != nil || v != 3 {
		t.Fatalf("warm Get = (%d, %v)", v, err)
	}
	if !charged {
		t.Fatal("disk-tier load was not charged; warm runs would attribute differently than cold")
	}
	if execs != 1 {
		t.Fatalf("warm Get executed the evaluator (execs = %d)", execs)
	}
	st := second.Stats()
	if st.DiskHits != 1 || st.Misses != 1 || st.Hits != 0 || st.Executions() != 0 {
		t.Fatalf("warm stats %+v", st)
	}
	// Memory hit on repeat; disk untouched.
	gets := backend.gets
	if _, charged, _ := second.Get(tkey("abc")); charged {
		t.Fatal("memory hit reported as charged")
	}
	if backend.gets != gets {
		t.Fatal("memory hit consulted the backend")
	}
}

func TestTieredNamespaceSeparation(t *testing.T) {
	backend := newMemBackend()
	eval := func(k tkey) (int, error) { return 1, nil }
	a := NewTiered(eval, backend, "a/", intCodec())
	b := NewTiered(eval, backend, "b/", intCodec())
	a.Get(tkey("k"))
	b.Get(tkey("k"))
	if len(backend.m) != 2 {
		t.Fatalf("namespaces collided: backend keys %v", backend.m)
	}
}

func TestTieredUndecodableRecordRecomputes(t *testing.T) {
	backend := newMemBackend()
	backend.garbage = true
	execs := 0
	c := NewTiered(func(k tkey) (int, error) { execs++; return 7, nil }, backend, "ns/", intCodec())
	v, charged, err := c.Get(tkey("x"))
	if err != nil || v != 7 || !charged {
		t.Fatalf("Get over garbage backend = (%d, %v, %v)", v, charged, err)
	}
	if execs != 1 {
		t.Fatalf("garbage record did not degrade to recompute (execs = %d)", execs)
	}
	if st := c.Stats(); st.DiskHits != 0 {
		t.Fatalf("garbage record counted as disk hit: %+v", st)
	}
}

func TestTieredErrorsNotPersisted(t *testing.T) {
	backend := newMemBackend()
	c := NewTiered(func(k tkey) (int, error) { return 0, fmt.Errorf("boom") }, backend, "ns/", intCodec())
	if _, _, err := c.Get(tkey("x")); err == nil {
		t.Fatal("expected error")
	}
	if backend.puts != 0 {
		t.Fatal("failed evaluation was persisted")
	}
}

func TestTieredNilBackendIsMemoryOnly(t *testing.T) {
	execs := 0
	c := NewTiered(func(k tkey) (int, error) { execs++; return 1, nil }, nil, "ns/", intCodec())
	c.Get(tkey("x"))
	c.Get(tkey("x"))
	if execs != 1 {
		t.Fatalf("execs = %d, want 1", execs)
	}
	if st := c.Stats(); st.DiskHits != 0 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTieredConcurrentColdGetsCoalesceOntoBackend(t *testing.T) {
	backend := newMemBackend()
	execs := 0
	block := make(chan struct{})
	c := NewTiered(func(k tkey) (int, error) { execs++; <-block; return 2, nil }, backend, "ns/", intCodec())
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, _, err := c.Get(tkey("k")); err != nil || v != 2 {
				t.Errorf("Get = (%d, %v)", v, err)
			}
		}()
	}
	close(block)
	wg.Wait()
	if execs != 1 {
		t.Fatalf("coalescing failed: execs = %d", execs)
	}
	if backend.gets != 1 || backend.puts != 1 {
		t.Fatalf("backend traffic gets=%d puts=%d, want 1/1 (singleflight onto the store)", backend.gets, backend.puts)
	}
}
