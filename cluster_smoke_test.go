// Multi-process smoke test of the distributed sweep fabric: a real served
// coordinator process, real served -worker processes (one killed with
// SIGKILL mid-shard), and a real sweep -remote client, talking over
// loopback HTTP. The in-process cluster tests (internal/fabric) pin the
// protocol; this test pins that the shipped binaries actually wire it up —
// flag parsing, signal handling, stdout contracts and all.
package repro

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
)

func buildBinary(t *testing.T, ctx context.Context, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./"+pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./%s: %v\n%s", pkg, err, out)
	}
	return bin
}

// awaitLeasedAndPublished polls the coordinator at url until a shard is
// leased to worker and its store has taken at least one record write,
// failing the test after timeout.
func awaitLeasedAndPublished(t *testing.T, url, worker string, timeout time.Duration) {
	t.Helper()
	cl := fabric.NewClient(url, nil)
	deadline := time.Now().Add(timeout)
	for {
		leased := false
		if jobs, err := cl.Jobs(); err == nil {
			for _, j := range jobs {
				for _, sh := range j.Shards {
					leased = leased || (sh.State == "leased" && sh.Worker == worker)
				}
			}
		}
		var stats struct {
			Store struct {
				Puts int64 `json:"puts"`
			} `json:"store"`
		}
		if leased {
			// A failed read leaves puts at 0: the next round asks again.
			if resp, err := http.Get(url + "/statsz"); err == nil {
				_ = json.NewDecoder(resp.Body).Decode(&stats)
				resp.Body.Close()
			}
		}
		if leased && stats.Store.Puts > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %v: shard leased to %s: %v, store puts: %d", timeout, worker, leased, stats.Store.Puts)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestClusterSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	binDir := t.TempDir()
	servedBin := buildBinary(t, ctx, binDir, "cmd/served")
	sweepBin := buildBinary(t, ctx, binDir, "cmd/sweep")

	// Coordinator on an ephemeral port; its startup line reports the address.
	coord := exec.CommandContext(ctx, servedBin, "-addr", "127.0.0.1:0", "-store", t.TempDir())
	coordOut, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Process.Kill(); coord.Wait() })
	sc := bufio.NewScanner(coordOut)
	if !sc.Scan() {
		t.Fatalf("coordinator printed nothing: %v", sc.Err())
	}
	fields := strings.Fields(sc.Text()) // "served listening on HOST:PORT (...)"
	if len(fields) < 4 {
		t.Fatalf("unexpected coordinator banner %q", sc.Text())
	}
	url := "http://" + fields[3]

	// The driver: submits the golden grid as a 3-shard job and blocks until
	// the cluster finishes, then assembles the report from the coordinator's
	// store. Runs concurrently with the worker churn below.
	var report, progress bytes.Buffer
	sweep := exec.CommandContext(ctx, sweepBin, "-remote", url, "-shards", "3",
		"-n", "6", "-seed", "42", "-exhaustive", "-workers", "2", "-remote-timeout", "2m")
	sweep.Stdout, sweep.Stderr = &report, &progress
	if err := sweep.Start(); err != nil {
		t.Fatal(err)
	}

	// Worker 1 is doomed: throttled so its shard is still in flight when
	// SIGKILL lands, on a short lease so the survivors steal it quickly.
	doomed := exec.CommandContext(ctx, servedBin, "-worker", "-coordinator", url,
		"-name", "doomed", "-lease-ttl", "300ms", "-throttle", "250ms")
	if err := doomed.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill it once it is inside a shard and has published work: a shard
	// leased to it and records in the store (a worker publishes a
	// scenario's records when the scenario ends).
	awaitLeasedAndPublished(t, url, "doomed", time.Minute)
	doomed.Process.Signal(os.Kill)
	doomed.Wait()

	// Workers 2 and 3 drain the job: between them they run the untouched
	// shards, wait out the dead worker's lease, steal it, resume past its
	// checkpoints, and exit once the job is complete.
	var workers []*exec.Cmd
	for _, name := range []string{"w2", "w3"} {
		w := exec.CommandContext(ctx, servedBin, "-worker", "-coordinator", url,
			"-name", name, "-drain", "-lease-ttl", "500ms")
		w.Stdout = os.Stderr // lease log aids debugging on failure
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

	// The assembled distributed report must be byte-identical to the golden
	// the local cold/warm/kill+resume paths are pinned to.
	want, err := os.ReadFile(filepath.Join("cmd", "sweep", "testdata", "store_sweep.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if report.String() != string(want) {
		t.Errorf("distributed report diverged from golden:\n--- got ---\n%s--- want ---\n%s",
			report.String(), want)
	}
}
