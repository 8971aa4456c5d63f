package engine

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frame"
	"repro/internal/sched"
	"repro/internal/store"
)

// storeGrid is a small randomized timing sweep used by the persistence
// tests; exhaustive is on so checkpoint records carry baseline summaries.
func storeGrid(n int) []Scenario {
	scenarios := make([]Scenario, n)
	for i := range scenarios {
		scenarios[i] = Scenario{
			Name:       fmt.Sprintf("s%03d", i),
			Seed:       int64(100 + i),
			Exhaustive: true,
		}
	}
	return scenarios
}

// summary flattens the report-visible fields of a result for equality
// checks across cold/warm/resumed runs. DiskHits is deliberately absent:
// it is the one counter allowed to differ between tiers.
type summary struct {
	Name      string
	Seed      int64
	AppCount  int
	Best      string
	ValueBits uint64
	Found     bool
	Evaluated int
	Hits      int64
	Misses    int64
	ExhBest   string
	ExhBits   uint64
	ExhEval   int
	ExhFeas   int
}

func summarize(t *testing.T, r *Result) summary {
	t.Helper()
	if r == nil {
		t.Fatal("nil result in completed sweep")
	}
	s := summary{
		Name:      r.Name,
		Seed:      r.Seed,
		AppCount:  r.AppCount,
		ValueBits: math.Float64bits(r.BestValue),
		Found:     r.FoundBest,
		Evaluated: r.Evaluated,
		Hits:      r.CacheStats.Hits,
		Misses:    r.CacheStats.Misses,
	}
	if r.FoundBest {
		s.Best = r.Best.String()
	}
	if ex := r.Exhaustive; ex != nil {
		s.ExhBest = ex.Best.String()
		s.ExhBits = math.Float64bits(ex.BestValue)
		s.ExhEval = ex.Evaluated
		s.ExhFeas = ex.Feasible
	}
	if ex := r.JointExhaustive; ex != nil {
		s.ExhBest = ex.Best.String()
		s.ExhBits = math.Float64bits(ex.BestValue)
		s.ExhEval = ex.Evaluated
		s.ExhFeas = ex.Feasible
	}
	return s
}

func mustEqual(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := summarize(t, got[i]), summarize(t, want[i])
		if g != w {
			t.Fatalf("%s: scenario %d diverged:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

func TestSweepColdWarmResumeBitIdentical(t *testing.T) {
	scenarios := storeGrid(4)
	baseline, err := Sweep(Config{Workers: 2}, scenarios)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Sweep(Config{Workers: 2, Store: st}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "cold vs memory-only", cold, baseline)
	for _, r := range cold {
		if r.CacheStats.DiskHits != 0 {
			t.Fatalf("cold run reported disk hits: %+v", r.CacheStats)
		}
		if r.Resumed {
			t.Fatal("cold run flagged Resumed")
		}
	}

	// Warm store, fresh process (new Store handle), no resume: every
	// evaluation loads from disk but all reports stay bit-identical.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Sweep(Config{Workers: 2, Store: st2}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "warm vs cold", warm, cold)
	diskHits := int64(0)
	for _, r := range warm {
		diskHits += r.CacheStats.DiskHits
	}
	if diskHits == 0 {
		t.Fatal("warm run hit the disk tier zero times")
	}

	// Resume: whole scenarios load from checkpoint records.
	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Sweep(Config{Workers: 2, Store: st3, Resume: true}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "resumed vs cold", resumed, cold)
	for _, r := range resumed {
		if !r.Resumed {
			t.Fatalf("scenario %s did not resume from its checkpoint", r.Name)
		}
		if r.Timings == nil || r.Weights == nil {
			t.Fatalf("resumed scenario %s lost its taskset graft", r.Name)
		}
	}
	if st3.Stats().Hits == 0 {
		t.Fatal("resume run read no records")
	}
}

// TestWarmSweepAppendsNothing pins that a stored sweep run again without
// Resume appends nothing once its checkpoints are in the store: every
// outcome loads from disk, and the checkpoint, which describes the result
// and not the run, comes out byte for byte as the store holds it, so it is
// not appended a second time. A cold run then a warm run leave one
// segment.
func TestWarmSweepAppendsNothing(t *testing.T) {
	scenarios := storeGrid(4)
	dir := t.TempDir()
	run := func() (*store.Store, []*Result) {
		t.Helper()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Sweep(Config{Workers: 2, Store: st}, scenarios)
		if err != nil {
			t.Fatal(err)
		}
		return st, res
	}
	segments := func() int {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return len(segs)
	}
	_, cold := run()
	if n := segments(); n != 1 {
		t.Fatalf("cold run left %d segment(s), want 1", n)
	}
	st, warm := run()
	mustEqual(t, "warm vs cold", warm, cold)
	if s := st.Stats(); s.Puts != 0 {
		t.Fatalf("warm run wrote %d record(s), want none", s.Puts)
	}
	if n := segments(); n != 1 {
		t.Fatalf("cold then warm run left %d segment(s), want 1", n)
	}
}

// TestSweepShardsAssembleBitIdentical: three processes, each with its own
// store handle on one directory, sweep contiguous slices of one grid (the
// way fabric workers run their leased ranges); a resume run then assembles
// the whole grid from their records alone.
func TestSweepShardsAssembleBitIdentical(t *testing.T) {
	scenarios := storeGrid(5)
	full, err := Sweep(Config{Workers: 1}, scenarios)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for _, r := range [][2]int{{0, 1}, {1, 3}, {3, 5}} {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		part, err := Sweep(Config{Workers: 2, Store: st}, scenarios[r[0]:r[1]])
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, fmt.Sprintf("shard %v vs full", r), part, full[r[0]:r[1]])
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	assembled, err := Sweep(Config{Workers: 2, Store: st, Resume: true}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "assembled vs full", assembled, full)
}

// TestSweepResumeSkipsRecomputation pins the resume contract: after a
// completed run, resuming executes zero evaluations.
func TestSweepResumeSkipsRecomputation(t *testing.T) {
	scenarios := storeGrid(3)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(Config{Store: st}, scenarios); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Sweep(Config{Store: st2, Resume: true}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resumed {
		if !r.Resumed {
			t.Fatalf("scenario %s re-ran", r.Name)
		}
	}
	// Only checkpoint-record reads: no outcome traffic at all.
	if gets, hits := st2.Stats().Gets, st2.Stats().Hits; gets != hits || gets != int64(len(scenarios)) {
		t.Fatalf("resume store traffic gets=%d hits=%d, want %d record loads only", gets, hits, len(scenarios))
	}
}

// TestSweepCorruptRecordRecomputes pins the corruption contract end to
// end: damaging a checkpoint record and an outcome record degrades to
// recomputation with identical results, never a panic or a wrong answer.
func TestSweepCorruptRecordRecomputes(t *testing.T) {
	scenarios := storeGrid(2)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Sweep(Config{Store: st}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the last payload byte of every record on disk: every frame now
	// fails its CRC.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to corrupt (err %v)", err)
	}
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			_, n, err := frame.Decode(data[off:], len(data))
			if err != nil {
				t.Fatalf("%s: %v at offset %d", path, err, off)
			}
			data[off+n-1] ^= 0x01
			off += n
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	healed, err := Sweep(Config{Store: st2, Resume: true}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "healed vs cold", healed, cold)
	for _, r := range healed {
		if r.Resumed {
			t.Fatal("corrupt checkpoint still resumed")
		}
	}
	if st2.Stats().Corrupt == 0 {
		t.Fatal("corruption went uncounted")
	}
}

// TestEvalNamespaceSeparates pins that scenarios with different evaluation
// spaces never share store keys, while identical ones do.
func TestEvalNamespaceSeparates(t *testing.T) {
	base := Scenario{Seed: 7}.withDefaults()
	res := func(scn Scenario) *Result {
		r, err := Run(scn)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	nsA := evalNamespace(base, res(base))

	same := Scenario{Seed: 7}.withDefaults()
	if got := evalNamespace(same, res(same)); got != nsA {
		t.Fatalf("identical scenarios hash differently: %s vs %s", got, nsA)
	}

	otherSeed := Scenario{Seed: 8}.withDefaults()
	if got := evalNamespace(otherSeed, res(otherSeed)); got == nsA {
		t.Fatal("different tasksets share a namespace")
	}

	// Search parameters must NOT change the namespace (outcomes are
	// properties of points), but they must change the checkpoint key.
	starts := []sched.Schedule{{1, 1, 1}}
	narrow := Scenario{Seed: 7, StartList: starts}.withDefaults()
	rNarrow := res(narrow)
	wide := Scenario{Seed: 7, MaxM: 9, StartList: starts}.withDefaults()
	rWide := res(wide)
	if got := evalNamespace(wide, rWide); got != nsA {
		t.Fatal("maxM changed the evaluation namespace")
	}
	if resultKey(narrow, rNarrow, starts) == resultKey(wide, rWide, starts) {
		t.Fatal("maxM did not change the checkpoint key")
	}
}
