package fabric

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
)

// fakeClock drives a Manager deterministically through lease expiry.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestManager() (*Manager, *fakeClock) {
	m := NewManager()
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	m.now = clk.now
	return m, clk
}

func TestSubmitIdempotentAndValidated(t *testing.T) {
	m, _ := newTestManager()
	spec := JobSpec{N: 6, Seed: 42, Shards: 3}
	id, created, err := m.Submit(spec)
	if err != nil || !created {
		t.Fatalf("first Submit: id=%q created=%v err=%v", id, created, err)
	}
	id2, created2, err := m.Submit(spec)
	if err != nil || created2 || id2 != id {
		t.Fatalf("re-Submit not idempotent: id=%q created=%v err=%v", id2, created2, err)
	}
	// Defaults normalize into the identity: naming them explicitly is the
	// same job (the CLI fills flag defaults in, other drivers may not).
	id3, created3, _ := m.Submit(JobSpec{
		N: 6, Seed: 42, Shards: 3, Apps: 3, MaxM: 6, Starts: 2,
		Tol: 0.01, Platforms: 1, Objective: "timing", Budget: "quick",
	})
	if created3 || id3 != id {
		t.Fatalf("normalized spec got a fresh job: %q vs %q", id3, id)
	}

	for _, bad := range []JobSpec{
		{N: 0},
		{N: MaxScenarios + 1},
		{N: 5, MaxM: MaxMaxM + 1},
		{N: 5, Apps: MaxApps + 1},
		{N: 5, Starts: MaxStarts + 1},
		{N: 5, Shards: MaxShards + 1},
		{N: 5, Objective: "psychic"},
		{N: 5, Budget: "xl"},
		{N: 5, Platforms: 99},
		{N: 5, Tol: -1},
	} {
		if _, _, err := m.Submit(bad); err == nil {
			t.Errorf("Submit(%+v) accepted", bad)
		}
	}
}

func TestShardsClampedToScenarios(t *testing.T) {
	m, _ := newTestManager()
	id, _, err := m.Submit(JobSpec{N: 2, Seed: 1, Shards: 10})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := m.Status(id)
	if len(st.Shards) != 2 {
		t.Fatalf("10 shards over 2 scenarios not clamped: %d", len(st.Shards))
	}
	if st.Shards[0].Lo != 0 || st.Shards[0].Hi != 1 || st.Shards[1].Lo != 1 || st.Shards[1].Hi != 2 {
		t.Fatalf("shard ranges wrong: %+v", st.Shards)
	}
}

// TestShardRangeTilesGrid: for every grid a job can be split into, the
// shard ranges are non-empty, contiguous and disjoint, and cover [0, n).
func TestShardRangeTilesGrid(t *testing.T) {
	for n := 1; n <= 50; n++ {
		for count := 1; count <= min(n, MaxShards); count++ {
			next := 0
			for i := 0; i < count; i++ {
				lo, hi := ShardRange(i, count, n)
				if lo != next || hi <= lo {
					t.Fatalf("n=%d count=%d: shard %d is [%d, %d), want a non-empty range from %d", n, count, i, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d count=%d: shards end at %d", n, count, next)
			}
		}
	}
}

func TestLeaseLifecycle(t *testing.T) {
	m, clk := newTestManager()
	id, _, _ := m.Submit(JobSpec{N: 6, Seed: 42, Shards: 3})

	l1, ok := m.Acquire("", "w1", time.Second)
	if !ok || l1.Job != id || l1.Shard != 0 || l1.Shards != 3 {
		t.Fatalf("first acquire: %+v ok=%v", l1, ok)
	}
	l2, ok := m.Acquire(id, "w2", time.Second)
	if !ok || l2.Shard != 1 {
		t.Fatalf("second acquire: %+v ok=%v", l2, ok)
	}
	l3, ok := m.Acquire(id, "w3", time.Second)
	if !ok || l3.Shard != 2 {
		t.Fatalf("third acquire: %+v ok=%v", l3, ok)
	}
	if _, ok := m.Acquire(id, "w4", time.Second); ok {
		t.Fatal("fourth acquire granted a shard on a fully leased job")
	}

	// Heartbeats extend only the owner's lease.
	if err := m.Heartbeat(id, 0, "w1", time.Second); err != nil {
		t.Fatalf("owner heartbeat: %v", err)
	}
	if err := m.Heartbeat(id, 0, "w2", time.Second); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("foreign heartbeat error %v, want ErrLeaseLost", err)
	}
	if err := m.Heartbeat("job-nope", 0, "w1", time.Second); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown-job heartbeat error %v", err)
	}

	if err := m.Complete(id, 0, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Complete(id, 0, "w1"); err != nil {
		t.Fatalf("idempotent complete: %v", err)
	}
	st, _ := m.Status(id)
	if st.Done != 1 || st.Leased != 2 || st.Complete {
		t.Fatalf("status after one complete: %+v", st)
	}

	// A done shard is never re-leased.
	if l, ok := m.Acquire(id, "w4", time.Second); ok && l.Shard == 0 {
		t.Fatal("done shard re-leased")
	}
	_ = clk
}

func TestExpiredLeaseIsStolen(t *testing.T) {
	m, clk := newTestManager()
	id, _, _ := m.Submit(JobSpec{N: 4, Seed: 7, Shards: 2})
	l1, _ := m.Acquire(id, "w1", time.Second)
	m.Acquire(id, "w2", time.Second)

	// Not yet expired: nothing to steal.
	if _, ok := m.Acquire(id, "thief", time.Second); ok {
		t.Fatal("unexpired lease stolen")
	}
	clk.advance(1500 * time.Millisecond)
	st, _ := m.Status(id)
	if st.Shards[0].State != "expired" {
		t.Fatalf("expired lease renders %q", st.Shards[0].State)
	}
	stolen, ok := m.Acquire(id, "thief", time.Second)
	if !ok || stolen.Shard != l1.Shard {
		t.Fatalf("steal acquired %+v ok=%v, want shard %d", stolen, ok, l1.Shard)
	}
	// The dead worker's heartbeat now fails...
	if err := m.Heartbeat(id, l1.Shard, "w1", time.Second); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stolen-lease heartbeat error %v, want ErrLeaseLost", err)
	}
	// ...but its Complete is still accepted: it finished the range, the
	// records are in the store, and determinism makes the thief's duplicate
	// run byte-identical.
	if err := m.Complete(id, l1.Shard, "w1"); err != nil {
		t.Fatalf("complete from superseded worker rejected: %v", err)
	}
}

func TestSlowOwnerMayRenewPastExpiry(t *testing.T) {
	m, clk := newTestManager()
	id, _, _ := m.Submit(JobSpec{N: 2, Seed: 1, Shards: 1})
	m.Acquire(id, "w1", time.Second)
	clk.advance(2 * time.Second)
	// Expired but not yet stolen: the owner was slow, not dead.
	if err := m.Heartbeat(id, 0, "w1", time.Second); err != nil {
		t.Fatalf("slow owner renewal rejected: %v", err)
	}
	if _, ok := m.Acquire(id, "thief", time.Second); ok {
		t.Fatal("renewed lease stolen")
	}
}

func TestAcquireScansJobsInSubmissionOrder(t *testing.T) {
	m, _ := newTestManager()
	idA, _, _ := m.Submit(JobSpec{N: 1, Seed: 1})
	idB, _, _ := m.Submit(JobSpec{N: 1, Seed: 2})
	l, ok := m.Acquire("", "w", time.Second)
	if !ok || l.Job != idA {
		t.Fatalf("acquire-any started at %q, want first job %q", l.Job, idA)
	}
	l, ok = m.Acquire("", "w", time.Second)
	if !ok || l.Job != idB {
		t.Fatalf("second acquire-any got %q, want %q", l.Job, idB)
	}
	if len(m.Jobs()) != 2 {
		t.Fatalf("Jobs() = %d entries", len(m.Jobs()))
	}
}

func TestGridMatchesLocalSweepDefaults(t *testing.T) {
	// The spec→grid mapping must equal what cmd/sweep builds for the same
	// flags, or distributed store keys would diverge from local ones.
	spec := JobSpec{N: 6, Seed: 42, Exhaustive: true, Shards: 3}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if grid.N != 6 || grid.Seed != 42 || !grid.Exhaustive {
		t.Fatalf("grid %+v", grid)
	}
	scen, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scen) != 6 || scen[0].Name != "s000" || scen[5].Seed != 47 {
		t.Fatalf("scenarios %+v", scen[0])
	}
	if _, err := (JobSpec{N: 1, Objective: "psychic"}).Grid(); err == nil {
		t.Fatal("bad objective expanded to a grid")
	}
}

// TestJobSpecAxisIdentity pins the job-identity contract of the arrival
// and hierarchy axes: legacy specs serialize without any axis key (so
// their content-hashed IDs are exactly what they were before the axes
// existed), inactive-axis parameters are ignored, and active-axis defaults
// resolve so spelled-out and omitted defaults are the same job.
func TestJobSpecAxisIdentity(t *testing.T) {
	legacy := JobSpec{N: 6, Seed: 42, Shards: 3}
	data, err := json.Marshal(legacy.normalized())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"jitter", "arrival_seed", "arrival_cycles", "l2_lines", "l2_ways", "l2_hit", "l2_exclusive"} {
		if strings.Contains(string(data), key) {
			t.Errorf("legacy spec serializes axis key %q: %s", key, data)
		}
	}

	// Inactive axes: the grid ignores their parameters, so they must not
	// split job identity.
	noise := legacy
	noise.ArrivalSeed, noise.ArrivalCycles = 9, 16
	noise.L2Ways, noise.L2Hit, noise.L2Exclusive = 8, 20, true
	if noise.ID() != legacy.ID() {
		t.Error("inactive-axis parameters changed the job ID")
	}

	// Active axes: defaults resolve, so omitted and spelled-out defaults
	// are one job — and the axis genuinely forks identity.
	jit := legacy
	jit.Jitter = 0.1
	spelled := jit
	spelled.ArrivalCycles = sched.DefaultArrivalCycles
	if jit.ID() != spelled.ID() {
		t.Error("default arrival cycles split the job ID")
	}
	if jit.ID() == legacy.ID() {
		t.Error("jitter did not fork the job ID")
	}
	l2 := legacy
	l2.L2Lines = 512
	l2spelled := l2
	l2spelled.L2Ways, l2spelled.L2Hit = 4, 10
	if l2.ID() != l2spelled.ID() {
		t.Error("default L2 geometry split the job ID")
	}
	if l2.ID() == legacy.ID() {
		t.Error("L2 overlay did not fork the job ID")
	}

	for _, bad := range []JobSpec{
		{N: 2, Jitter: 1.0},
		{N: 2, Jitter: -0.1},
		{N: 2, Jitter: 0.1, ArrivalCycles: 1},
		{N: 2, Jitter: 0.1, ArrivalCycles: MaxArrivalCycles + 1},
		{N: 2, L2Lines: MaxL2Lines + 1},
		{N: 2, L2Lines: 512, L2Ways: MaxL2Ways + 1},
		{N: 2, L2Lines: 512, L2Hit: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v validated", bad)
		}
	}

	// And the axis fields must actually reach the grid.
	grid, err := (JobSpec{N: 2, Jitter: 0.1, ArrivalSeed: 5, L2Lines: 512, L2Exclusive: true}).Grid()
	if err != nil {
		t.Fatal(err)
	}
	if grid.Jitter != 0.1 || grid.ArrivalSeed != 5 || grid.ArrivalCycles != sched.DefaultArrivalCycles ||
		grid.L2Lines != 512 || grid.L2Ways != 4 || grid.L2Hit != 10 || !grid.L2Exclusive {
		t.Errorf("grid %+v lost axis fields", grid)
	}
}
