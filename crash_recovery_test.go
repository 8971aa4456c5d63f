// Multi-process crash-recovery matrix: a journaled served coordinator is
// SIGKILLed by a seeded chaos schedule exactly when the first shard
// completion hits the journal (record durable, acknowledgement lost), then
// restarted on the same address against the same journal and store. The
// live sweep -remote driver and fresh workers must heal around the crash,
// the journaled-done shard must never be re-executed, and the assembled
// report must stay byte-identical to the single-process golden.
package repro

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
)

// startCoordinator launches served against the shared store+journal and
// returns the process plus the address from its banner line. The extra env
// entry (e.g. the chaos crash schedule) is appended to the inherited
// environment when non-empty.
func startCoordinator(t *testing.T, ctx context.Context, bin, addr, storeDir, journalDir, extraEnv string) (*exec.Cmd, string) {
	t.Helper()
	coord := exec.CommandContext(ctx, bin, "-addr", addr,
		"-store", storeDir, "-journal", journalDir, "-lease-ttl", "500ms")
	coord.Env = os.Environ()
	if extraEnv != "" {
		coord.Env = append(coord.Env, extraEnv)
	}
	out, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	coord.Stderr = os.Stderr
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Process.Kill(); coord.Wait() })
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		t.Fatalf("coordinator printed nothing: %v", sc.Err())
	}
	fields := strings.Fields(sc.Text()) // "served listening on HOST:PORT (...)"
	if len(fields) < 4 {
		t.Fatalf("unexpected coordinator banner %q", sc.Text())
	}
	go func() { // drain recovery/log lines so the child never blocks on the pipe
		for sc.Scan() {
			fmt.Fprintln(os.Stderr, "[coord]", sc.Text())
		}
	}()
	return coord, fields[3]
}

func TestCrashRecoveryMatrix(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	binDir := t.TempDir()
	servedBin := buildBinary(t, ctx, binDir, "cmd/served")
	sweepBin := buildBinary(t, ctx, binDir, "cmd/sweep")
	storeDir, journalDir := t.TempDir(), t.TempDir()

	// Coordinator A is doomed: journal append #1 is the driver's Submit,
	// append #2 the first shard Complete — the chaos schedule lets that
	// record reach disk and then SIGKILLs the process before it can answer.
	coordA, addr := startCoordinator(t, ctx, servedBin, "127.0.0.1:0",
		storeDir, journalDir, "CHAOS_CRASH=journal-append:2")
	url := "http://" + addr

	// The driver rides through the outage: a 1s poll gives it 8+ seconds of
	// consecutive-failure tolerance, far more than the restart below needs.
	var report, progress bytes.Buffer
	sweep := exec.CommandContext(ctx, sweepBin, "-remote", url, "-shards", "3",
		"-n", "6", "-seed", "42", "-exhaustive", "-workers", "2",
		"-remote-poll", "1s", "-remote-timeout", "2m")
	sweep.Stdout, sweep.Stderr = &report, &progress
	if err := sweep.Start(); err != nil {
		t.Fatal(err)
	}

	// Worker 1 triggers the crash: its first Complete is journal append #2.
	w1 := exec.CommandContext(ctx, servedBin, "-worker", "-coordinator", url,
		"-name", "w1", "-lease-ttl", "500ms")
	w1.Stdout = os.Stderr
	if err := w1.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w1.Process.Kill(); w1.Wait() })
	if err := coordA.Wait(); err == nil {
		t.Fatal("coordinator A exited cleanly; the chaos schedule should have SIGKILLed it")
	}
	w1.Process.Kill()
	w1.Wait()

	// The journal — inspected cold, exactly as a restart would read it —
	// must hold the submit plus the single durable-but-unacknowledged
	// completion.
	doneShards := map[int]bool{}
	{
		j, err := fabric.OpenJournal(journalDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range j.Replayed() {
			if rec.Op == fabric.OpComplete {
				doneShards[rec.Shard] = true
			}
		}
		j.Close()
		if len(doneShards) != 1 {
			t.Fatalf("journal after crash records %d done shard(s) (%v), want exactly 1", len(doneShards), doneShards)
		}
	}

	// Coordinator B: same address, same journal, same store, no chaos. It
	// must replay promptly and report ready while the driver is still
	// within its poll-failure budget.
	_, _ = startCoordinator(t, ctx, servedBin, addr, storeDir, journalDir, "")
	readyDeadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(readyDeadline) {
			t.Fatalf("restarted coordinator never became ready: err=%v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Fresh workers drain the recovered job; their lease logs prove the
	// journaled-done shard is never handed out again.
	var logs [2]bytes.Buffer
	var workers []*exec.Cmd
	for i, name := range []string{"w2", "w3"} {
		w := exec.CommandContext(ctx, servedBin, "-worker", "-coordinator", url,
			"-name", name, "-drain", "-lease-ttl", "500ms")
		w.Stdout, w.Stderr = &logs[i], os.Stderr
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	for _, w := range workers {
		if err := w.Wait(); err != nil {
			t.Fatalf("drain worker failed: %v", err)
		}
	}
	if err := sweep.Wait(); err != nil {
		t.Fatalf("sweep -remote failed: %v\nprogress:\n%s", err, progress.String())
	}

	// No journaled-done shard re-executed: the recovered coordinator's
	// workers between them lease and run exactly the other shards.
	leaseRe := regexp.MustCompile(`leased \S+ shard (\d+)/`)
	exitRe := regexp.MustCompile(`worker \S+: (\d+) shard\(s\)`)
	totalShards := 0
	for i, name := range []string{"w2", "w3"} {
		text := logs[i].String()
		for _, m := range leaseRe.FindAllStringSubmatch(text, -1) {
			shard, err := strconv.Atoi(m[1])
			if err != nil {
				t.Fatal(err)
			}
			if doneShards[shard] {
				t.Errorf("worker %s re-leased journaled-done shard %d:\n%s", name, shard, text)
			}
		}
		m := exitRe.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("worker %s printed no exit summary:\n%s", name, text)
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		totalShards += n
	}
	if want := 3 - len(doneShards); totalShards != want {
		t.Errorf("post-restart workers completed %d shard(s), want %d (journaled-done shard must not re-execute)", totalShards, want)
	}

	// Byte-identical to the single-process golden despite the crash.
	want, err := os.ReadFile(filepath.Join("cmd", "sweep", "testdata", "store_sweep.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if report.String() != string(want) {
		t.Errorf("crash-recovered report diverged from golden:\n--- got ---\n%s--- want ---\n%s",
			report.String(), want)
	}
}
