package fabric

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/store/httpstore"
)

// newJournaledCluster is newCluster with a journal-attached manager; the
// journal directory outlives the server so a "restarted coordinator" can
// reopen it.
func newJournaledCluster(t *testing.T, st *store.Store, journalDir string) (*httptest.Server, *Manager) {
	t.Helper()
	j, err := OpenJournal(journalDir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	if _, err := m.Recover(j); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coordinatorHandler(m, st))
	return srv, m
}

// TestJournaledCoordinatorCrashRestart is the in-process half of the
// crash-recovery matrix: a coordinator that journaled one submit and one
// complete dies (server gone, journal file handle dropped, lease table
// lost); its replacement replays the journal and — without any
// resubmission — already knows the job and the done shard. A drain worker
// then finishes exactly the two remaining shards and the assembled report
// is bit-identical to the single-process baseline.
func TestJournaledCoordinatorCrashRestart(t *testing.T) {
	scenarios, want := baseline(t, clusterSpec)
	storeDir, journalDir := t.TempDir(), t.TempDir()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	srvA, mA := newJournaledCluster(t, st, journalDir)
	clA := NewClient(srvA.URL, nil)
	jobID, err := clA.Submit(clusterSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Complete shard 0 by hand: lease it, run its scenarios into the shared
	// store, report it done — the Complete lands in the journal.
	lease, ok, err := clA.Acquire(jobID, "w-pre", time.Second)
	if err != nil || !ok || lease.Shard != 0 {
		t.Fatalf("acquire: lease=%+v ok=%v err=%v", lease, ok, err)
	}
	backend := httpstore.New(srvA.URL, nil)
	lo, hi := ShardRange(lease.Shard, lease.Shards, len(scenarios))
	for i := lo; i < hi; i++ {
		if _, err := engine.RunWith(scenarios[i], engine.RunConfig{Store: backend, Resume: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := clA.Complete(lease, "w-pre"); err != nil {
		t.Fatal(err)
	}

	// Crash: the server dies and the journal handle dies with it.
	srvA.Close()
	mA.Journal().Close()

	// The replacement recovers purely from the journal.
	jB, err := OpenJournal(journalDir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mB := NewManager()
	rst, err := mB.Recover(jB)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Jobs != 1 || rst.DoneShards != 1 {
		t.Fatalf("recovered %+v, want 1 job + 1 done shard", rst)
	}
	srvB := httptest.NewServer(coordinatorHandler(mB, st))
	t.Cleanup(srvB.Close)
	t.Cleanup(func() { jB.Close() })

	// No resubmission: the job is simply there, shard 0 already done.
	clB := NewClient(srvB.URL, nil)
	jst, err := clB.Status(jobID)
	if err != nil {
		t.Fatalf("status on recovered coordinator without resubmit: %v", err)
	}
	if jst.Done != 1 || jst.Shards[0].State != "done" {
		t.Fatalf("recovered status %+v, want shard 0 done", jst)
	}

	// A drain worker finishes the job: exactly the 2 shards the journal did
	// not record as done — the recovered done-shard is never re-leased.
	w := &Worker{Coordinator: srvB.URL, Name: "w-post", TTL: time.Second, Drain: true}
	stats, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 2 {
		t.Fatalf("post-recovery worker completed %d shard(s), want exactly 2 (no re-execution of the journaled-done shard)", stats.Shards)
	}
	awaitComplete(t, clB, jobID, time.Second)
	mustMatch(t, "journaled crash-restart vs single-process", assemble(t, srvB.URL, scenarios), want)
}

// TestWorkerPreCompleteCrashHeals stages the second crash schedule: a
// worker finishes publishing every record of its shard and dies before
// calling Complete. The lease expires, a survivor steals the shard, resumes
// straight through the checkpoints, and the report stays bit-identical.
func TestWorkerPreCompleteCrashHeals(t *testing.T) {
	scenarios, want := baseline(t, clusterSpec)
	c := newCluster(t)
	cl := NewClient(c.srv.URL, nil)
	jobID, err := cl.Submit(clusterSpec)
	if err != nil {
		t.Fatal(err)
	}

	// The victim dies at the first pre-complete point. Goexit models the
	// process death faithfully inside one process: the worker goroutine
	// stops on the spot and Complete is never sent.
	chaos.Arm(&chaos.CrashPlan{
		Point: chaos.CrashWorkerPreComplete,
		After: 1,
		Kill:  func() { runtime.Goexit() },
	})
	t.Cleanup(func() { chaos.Arm(nil) })
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		w := &Worker{Coordinator: c.srv.URL, Name: "victim", TTL: MinTTL, Drain: true}
		w.Run(context.Background())
	}()
	select {
	case <-victimDone:
	case <-time.After(30 * time.Second):
		t.Fatal("victim never reached the pre-complete crash point")
	}
	chaos.Arm(nil)

	// Its shard is leased-but-never-completed; after the TTL it is stolen.
	jst, err := cl.Status(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if jst.Done != 0 {
		t.Fatalf("victim completed %d shard(s) despite the crash point", jst.Done)
	}
	w := &Worker{Coordinator: c.srv.URL, Name: "survivor", TTL: time.Second, Drain: true}
	stats, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 3 {
		t.Fatalf("survivor completed %d shard(s), want all 3", stats.Shards)
	}
	awaitComplete(t, cl, jobID, time.Second)
	mustMatch(t, "worker pre-complete crash vs single-process", assemble(t, c.srv.URL, scenarios), want)
}
