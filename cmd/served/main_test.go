package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/store"
)

// testServer mounts the service on an httptest server, with or without a
// persistent store.
func testServer(t *testing.T, dir string) (*server, *httptest.Server) {
	t.Helper()
	var st *store.Store
	if dir != "" {
		var err error
		if st, err = store.Open(dir); err != nil {
			t.Fatal(err)
		}
	}
	s := newServer(st, "tiny")
	hs := httptest.NewServer(s.mux)
	t.Cleanup(hs.Close)
	return s, hs
}

// freshLen counts the records in st's directory through a newly opened
// handle, whose startup scan sees every segment.
func freshLen(t *testing.T, st *store.Store) int64 {
	t.Helper()
	h, err := store.Open(st.Root())
	if err != nil {
		t.Fatal(err)
	}
	return h.ApproxLen()
}

// getJSON fetches a URL and decodes the JSON body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestServedHealthz(t *testing.T) {
	_, hs := testServer(t, "")
	var body map[string]any
	if code := getJSON(t, hs.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if body["ok"] != true {
		t.Fatalf("healthz body %v", body)
	}
}

func TestServedTables(t *testing.T) {
	_, hs := testServer(t, t.TempDir())
	for _, table := range []string{"I", "II", "IV"} {
		var body map[string]string
		if code := getJSON(t, hs.URL+"/v1/table/"+table, &body); code != http.StatusOK {
			t.Fatalf("table %s status %d", table, code)
		}
		if body["table"] != table || !strings.Contains(body["text"], "TABLE") {
			t.Fatalf("table %s body %v", table, body)
		}
	}
	// Table IV must carry the partition case study rows.
	var t4 map[string]string
	getJSON(t, hs.URL+"/v1/table/IV", &t4)
	for _, want := range []string{"paper-128x1", "8way-512", "JOINT CACHE-PARTITION"} {
		if !strings.Contains(t4["text"], want) {
			t.Errorf("table IV missing %q:\n%s", want, t4["text"])
		}
	}
	if code := getJSON(t, hs.URL+"/v1/table/V", nil); code != http.StatusNotFound {
		t.Errorf("unknown table status %d, want 404", code)
	}
	if code := getJSON(t, hs.URL+"/v1/table/IV?maxm=zero", nil); code != http.StatusBadRequest {
		t.Errorf("bad maxm status %d, want 400", code)
	}
}

func TestServedDesignBatch(t *testing.T) {
	_, hs := testServer(t, "")
	var body struct {
		Budget  string           `json:"budget"`
		Results []designResponse `json:"results"`
	}
	url := hs.URL + "/v1/design?schedule=1,1,1&schedule=3,2,3&budget=tiny"
	if code := getJSON(t, url, &body); code != http.StatusOK {
		t.Fatalf("design status %d", code)
	}
	if len(body.Results) != 2 {
		t.Fatalf("batch returned %d results, want 2", len(body.Results))
	}
	if body.Results[0].Schedule != "(1, 1, 1)" || body.Results[1].Schedule != "(3, 2, 3)" {
		t.Fatalf("batch order/content wrong: %+v", body.Results)
	}
	for _, r := range body.Results {
		if len(r.Apps) != 3 {
			t.Fatalf("design result missing apps: %+v", r)
		}
	}

	// POST form, same evaluation.
	resp, err := http.Post(hs.URL+"/v1/design", "application/json",
		strings.NewReader(`{"schedules":["1,1,1"],"budget":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var post struct {
		Results []designResponse `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&post); err != nil {
		t.Fatal(err)
	}
	if len(post.Results) != 1 || post.Results[0].Pall != body.Results[0].Pall {
		t.Fatalf("POST result diverged from GET: %+v vs %+v", post.Results, body.Results[0])
	}

	oversize := "/v1/design?schedule=1,1,1" + strings.Repeat("&schedule=1,1,1", maxDesignBatch)
	for _, bad := range []string{
		"/v1/design",                             // no schedule
		"/v1/design?schedule=a,b",                // unparsable
		"/v1/design?schedule=256,1,1",            // burst beyond the packed point key
		"/v1/design?schedule=1,1,1&ways=1,1,300", // way count beyond the packed point key
		"/v1/design?schedule=1,1,1&budget=xl",    // unknown budget
		oversize,                                 // batch over the cap
	} {
		if code := getJSON(t, hs.URL+bad, nil); code != http.StatusBadRequest {
			t.Errorf("%.60s status %d, want 400", bad, code)
		}
	}
}

func TestServedSweepAndStatszDiskHits(t *testing.T) {
	dir := t.TempDir()
	_, hs := testServer(t, dir)
	var first struct {
		Rows  []sweepRow `json:"rows"`
		Found int        `json:"found"`
		Total int        `json:"total"`
	}
	url := hs.URL + "/v1/sweep?n=3&seed=5&exhaustive=1"
	if code := getJSON(t, url, &first); code != http.StatusOK {
		t.Fatalf("sweep status %d", code)
	}
	if first.Total != 3 || len(first.Rows) != 3 {
		t.Fatalf("sweep rows %+v", first)
	}

	// A new service process on the same store answers the same sweep from
	// checkpoints; the rows must match whole, disk hits included (a
	// checkpoint describes the result, not the run), and /statsz must show
	// disk-tier traffic.
	_, hs2 := testServer(t, dir)
	var second struct {
		Rows []sweepRow `json:"rows"`
	}
	if code := getJSON(t, hs2.URL+"/v1/sweep?n=3&seed=5&exhaustive=1", &second); code != http.StatusOK {
		t.Fatalf("warm sweep failed")
	}
	for i := range first.Rows {
		if a, b := first.Rows[i], second.Rows[i]; a != b {
			t.Fatalf("warm sweep row %d diverged: %+v vs %+v", i, a, b)
		}
	}
	var stats struct {
		Store store.Stats `json:"store"`
	}
	if code := getJSON(t, hs2.URL+"/statsz", &stats); code != http.StatusOK {
		t.Fatal("statsz failed")
	}
	if stats.Store.Hits == 0 {
		t.Fatalf("warm service shows no disk-tier hits: %+v", stats.Store)
	}

	if code := getJSON(t, hs.URL+"/v1/sweep?n=0", nil); code != http.StatusBadRequest {
		t.Errorf("n=0 status %d, want 400", code)
	}
	if code := getJSON(t, hs.URL+"/v1/sweep?n=2&objective=psychic", nil); code != http.StatusBadRequest {
		t.Errorf("bad objective status %d, want 400", code)
	}
	// Resource caps: one request must not be able to exhaust the service.
	if code := getJSON(t, hs.URL+"/v1/sweep?n=2&maxm=50", nil); code != http.StatusBadRequest {
		t.Errorf("maxm=50 status %d, want 400", code)
	}
	if code := getJSON(t, hs.URL+"/v1/sweep?n=2&apps=100", nil); code != http.StatusBadRequest {
		t.Errorf("apps=100 status %d, want 400", code)
	}
}

// TestServedSweepScenarioAxes drives the arrival and hierarchy parameters
// of /v1/sweep: jittered sweeps answer deterministically (including from a
// fresh process on the warm store), differ from the periodic rows, and
// out-of-range axis values are rejected.
func TestServedSweepScenarioAxes(t *testing.T) {
	dir := t.TempDir()
	_, hs := testServer(t, dir)
	type sweepResp struct {
		Rows []sweepRow `json:"rows"`
	}
	var periodic, jittered sweepResp
	if code := getJSON(t, hs.URL+"/v1/sweep?n=3&seed=5&exhaustive=1", &periodic); code != http.StatusOK {
		t.Fatalf("periodic sweep status %d", code)
	}
	url := "/v1/sweep?n=3&seed=5&exhaustive=1&jitter=0.2&arrival_seed=7&arrival_cycles=16"
	if code := getJSON(t, hs.URL+url, &jittered); code != http.StatusOK {
		t.Fatalf("jittered sweep status %d", code)
	}
	same := true
	for i := range periodic.Rows {
		if periodic.Rows[i].Pall != jittered.Rows[i].Pall {
			same = false
		}
	}
	if same {
		t.Error("jitter=0.2 left every sweep row unchanged")
	}
	_, hs2 := testServer(t, dir)
	var warm sweepResp
	if code := getJSON(t, hs2.URL+url, &warm); code != http.StatusOK {
		t.Fatalf("warm jittered sweep status %d", code)
	}
	for i := range jittered.Rows {
		if a, b := jittered.Rows[i], warm.Rows[i]; a != b {
			t.Fatalf("warm jittered row %d diverged: %+v vs %+v", i, a, b)
		}
	}
	// The hierarchy axis must parse and answer (bit-identity to the
	// single-level rows on conflict-free random programs is pinned at the
	// CLI level; here we only pin the plumbing).
	var l2 sweepResp
	if code := getJSON(t, hs.URL+"/v1/sweep?n=2&seed=5&l2_lines=512&l2_ways=8&l2_exclusive=1", &l2); code != http.StatusOK {
		t.Fatalf("l2 sweep status %d", code)
	}
	if len(l2.Rows) != 2 {
		t.Fatalf("l2 sweep rows %+v", l2)
	}
	for _, bad := range []string{
		"/v1/sweep?n=2&jitter=1.5",
		"/v1/sweep?n=2&jitter=-0.1",
		"/v1/sweep?n=2&jitter=NaN",
		"/v1/sweep?n=2&jitter=x",
		"/v1/sweep?n=2&l2_lines=-4",
		"/v1/sweep?n=2&l2_lines=510",            // default 4 ways don't divide 510 lines
		"/v1/sweep?n=2&l2_lines=512&l2_hit=200", // L2 hit above the memory cost
		"/v1/sweep?n=2&arrival_seed=x",
	} {
		if code := getJSON(t, hs.URL+bad, nil); code != http.StatusBadRequest {
			t.Errorf("%s status %d, want 400", bad, code)
		}
	}
}

// TestServedDesignPersists pins the store round-trip of design records:
// a fresh server on a warm store serves the identical design without
// recomputing (visible as a designs-cache disk hit).
func TestServedDesignPersists(t *testing.T) {
	dir := t.TempDir()
	_, hs := testServer(t, dir)
	var cold struct {
		Results []designResponse `json:"results"`
	}
	if code := getJSON(t, hs.URL+"/v1/design?schedule=2,2,2", &cold); code != http.StatusOK {
		t.Fatal("cold design failed")
	}

	s2, hs2 := testServer(t, dir)
	var warm struct {
		Results []designResponse `json:"results"`
	}
	if code := getJSON(t, hs2.URL+"/v1/design?schedule=2,2,2", &warm); code != http.StatusOK {
		t.Fatal("warm design failed")
	}
	if cold.Results[0].Pall != warm.Results[0].Pall {
		t.Fatalf("warm design diverged: %v vs %v", cold.Results[0], warm.Results[0])
	}
	if st := s2.designs.Stats(); st.DiskHits != 1 || st.Executions() != 0 {
		t.Fatalf("warm design did not come from disk: %+v", st)
	}
}

func TestServedRunFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-budget", "nope"}, &sb); err == nil {
		t.Error("unknown budget accepted")
	}
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestServedCacheKeysPinned: the design and table cache keys render the
// persistent keys the service has always written, so stores stay warm.
func TestServedCacheKeysPinned(t *testing.T) {
	for _, c := range []struct {
		key  interface{ Key() string }
		want string
	}{
		{designKey{budget: "tiny", point: sched.JointSchedule{M: sched.Schedule{3, 2, 3}}}, "b=tiny|(3, 2, 3)"},
		{designKey{budget: "quick", point: sched.JointSchedule{M: sched.Schedule{3, 2, 3}, W: sched.Ways{2, 1, 1}}}, "b=quick|(3, 2, 3)|w[2 1 1]"},
		{tableKey{table: "IV", budget: "tiny", maxM: 6, tol: 0.01}, "IV|b=tiny|m=6|tol=3f847ae147ae147b"},
	} {
		if got := c.key.Key(); got != c.want {
			t.Errorf("key %q, want %q", got, c.want)
		}
	}
}

// TestServedTableAndSweepBounds pins the request-bound fixes: /v1/table
// must cap maxm like /v1/sweep does (a maxm^apps search bypassing
// maxSweepMaxM could take the service down), and both endpoints must
// reject tolerances the searches cannot converge under.
func TestServedTableAndSweepBounds(t *testing.T) {
	_, hs := testServer(t, "")
	for _, bad := range []string{
		"/v1/table/IV?maxm=100",
		"/v1/table/IV?maxm=13",
		"/v1/table/IV?tol=NaN",
		"/v1/table/IV?tol=-1",
		"/v1/table/IV?tol=0",
		"/v1/table/IV?tol=%2BInf",
		"/v1/sweep?n=2&tol=NaN",
		"/v1/sweep?n=2&tol=-0.5",
		"/v1/sweep?n=2&tol=0",
		"/v1/sweep?n=2&tol=%2BInf",
	} {
		if code := getJSON(t, hs.URL+bad, nil); code != http.StatusBadRequest {
			t.Errorf("%s status %d, want 400", bad, code)
		}
	}
	// The POST body path runs through the same validation.
	resp, err := http.Post(hs.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"n": 2, "tol": -1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST sweep tol=-1 status %d, want 400", resp.StatusCode)
	}
	// In-cap values still work.
	var body map[string]string
	if code := getJSON(t, hs.URL+"/v1/table/IV?maxm=4&tol=0.05", &body); code != http.StatusOK {
		t.Errorf("maxm=4 tol=0.05 status %d, want 200", code)
	}
}

// TestServedDesignPartialBatch pins the per-entry error contract: a batch
// mixing parsable and unparsable schedules answers 400 with the good
// entries evaluated and each bad entry carrying its own error, while an
// internal evaluation failure (well-formed schedule of the wrong length)
// is a 500, not the caller's fault.
func TestServedDesignPartialBatch(t *testing.T) {
	_, hs := testServer(t, "")
	var body struct {
		Results []designResponse `json:"results"`
	}
	url := hs.URL + "/v1/design?schedule=1,1,1&schedule=bogus&schedule=3,2,3"
	if code := getJSON(t, url, &body); code != http.StatusBadRequest {
		t.Fatalf("mixed batch status %d, want 400", code)
	}
	if len(body.Results) != 3 {
		t.Fatalf("mixed batch returned %d results, want all 3", len(body.Results))
	}
	if body.Results[0].Error != "" || body.Results[0].Schedule != "(1, 1, 1)" || len(body.Results[0].Apps) != 3 {
		t.Fatalf("good entry before the bad one lost its result: %+v", body.Results[0])
	}
	if body.Results[1].Error == "" || body.Results[1].Schedule != "bogus" {
		t.Fatalf("bad entry not reported in place: %+v", body.Results[1])
	}
	if body.Results[2].Error != "" || len(body.Results[2].Apps) != 3 {
		t.Fatalf("good entry after the bad one lost its result: %+v", body.Results[2])
	}

	// A well-formed point that does not fit the case study is the caller's
	// fault too: a 400 with the entry's own error, never a 500 a retrying
	// client would resend unchanged.
	if code := getJSON(t, hs.URL+"/v1/design?schedule=1,1,1&schedule=1,1", &body); code != http.StatusBadRequest {
		t.Fatalf("wrong-length entry status %d, want 400", code)
	}
	if len(body.Results) != 2 || body.Results[0].Error != "" || body.Results[1].Error == "" {
		t.Fatalf("wrong-length entry not reported in place: %+v", body.Results)
	}
}

// TestServedDesignRejectsMalformedPoints: schedules and partitions that
// cannot be evaluated against the case study on the paper cache answer 400,
// not 500.
func TestServedDesignRejectsMalformedPoints(t *testing.T) {
	_, hs := testServer(t, "")
	for _, bad := range []string{
		"/v1/design?schedule=0,1,1",
		"/v1/design?schedule=1,1",
		"/v1/design?schedule=1,1,1,1",
		"/v1/design?schedule=1,1,1&ways=0,1,1",
		"/v1/design?schedule=1,1,1&ways=1,1",
		"/v1/design?schedule=1,1,1&ways=1,1,1",
	} {
		if code := getJSON(t, hs.URL+bad, nil); code != http.StatusBadRequest {
			t.Errorf("%s status %d, want 400", bad, code)
		}
	}
}

// TestServedStatszApproxRecords pins that the stats endpoint reports the
// store's O(1) approximate record count (the exact Len walk is an offline
// tool and must stay off the request path).
func TestServedStatszApproxRecords(t *testing.T) {
	dir := t.TempDir()
	s, hs := testServer(t, dir)
	if code := getJSON(t, hs.URL+"/v1/sweep?n=2&seed=9", nil); code != http.StatusOK {
		t.Fatal("seeding sweep failed")
	}
	var stats struct {
		Records int64          `json:"store_records"`
		Shards  map[string]any `json:"shards"`
	}
	if code := getJSON(t, hs.URL+"/statsz", &stats); code != http.StatusOK {
		t.Fatal("statsz failed")
	}
	if stats.Records <= 0 {
		t.Fatalf("store_records = %d after a stored sweep", stats.Records)
	}
	if want := freshLen(t, s.st); stats.Records != want {
		t.Fatalf("approximate count %d diverged from exact %d", stats.Records, want)
	}
	if stats.Shards == nil {
		t.Fatal("statsz missing shards section on a coordinator")
	}
}

// TestServedStatszJournalKeys pins the journal object of a -journal
// server's /statsz: the journal's counters under fabric.JournalStats's
// JSON names (bench/persist.go reads appends and fsyncs), whether replay
// is running, and what replay recovered once it has finished.
func TestServedStatszJournalKeys(t *testing.T) {
	s, hs := testServer(t, t.TempDir())
	j, err := fabric.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	// The wiring run does for -journal: replaying until Recover returns.
	s.journal = j
	s.replaying.Store(true)
	journal := func() map[string]any {
		t.Helper()
		var stats struct {
			Journal map[string]any `json:"journal"`
		}
		if code := getJSON(t, hs.URL+"/statsz", &stats); code != http.StatusOK {
			t.Fatal("statsz failed")
		}
		return stats.Journal
	}
	counters := []string{"appends", "fsyncs", "log_records", "replaying", "torn_bytes"}
	if got := journal(); !slices.Equal(slices.Sorted(maps.Keys(got)), counters) || got["replaying"] != true {
		t.Fatalf("journal object during replay: %v", got)
	}

	rs, err := s.shards.Recover(j)
	if err != nil {
		t.Fatal(err)
	}
	s.recovered.Store(&rs)
	s.replaying.Store(false)
	if _, _, err := s.shards.Submit(fabric.JobSpec{N: 2, Seed: 1, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	got := journal()
	want := slices.Sorted(slices.Values(append(counters, "recovered_done_shards", "recovered_jobs", "replay_skipped", "replayed_records")))
	if keys := slices.Sorted(maps.Keys(got)); !slices.Equal(keys, want) {
		t.Fatalf("journal keys after replay %v, want %v", keys, want)
	}
	if got["appends"] != 1.0 || got["fsyncs"] != 1.0 || got["replaying"] != false {
		t.Fatalf("journal object after one submit: %v", got)
	}
}

// TestServedFabricEndpointsRequireStore pins the no-store behavior of the
// cluster endpoints: they answer (the mux routes them) but refuse, since a
// coordinator without a durable store would recompute forever.
func TestServedFabricEndpointsRequireStore(t *testing.T) {
	_, hs := testServer(t, "")
	if code := getJSON(t, hs.URL+"/v1/store/any/key", nil); code != http.StatusServiceUnavailable {
		t.Errorf("/v1/store without store: status %d, want 503", code)
	}
	resp, err := http.Post(hs.URL+"/v1/shards/acquire", "application/json", strings.NewReader(`{"worker":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/v1/shards without store: status %d, want 503", resp.StatusCode)
	}

	// With a store both protocols come alive on the same mux.
	_, hs2 := testServer(t, t.TempDir())
	resp2, err := http.Post(hs2.URL+"/v1/shards/jobs", "application/json",
		strings.NewReader(`{"n": 2, "seed": 1, "shards": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("submit on coordinator: status %d, want 200", resp2.StatusCode)
	}
	var sub struct {
		Job    string `json:"job"`
		Shards int    `json:"shards"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if sub.Job == "" || sub.Shards != 2 {
		t.Fatalf("submit response %+v", sub)
	}
}

// TestServedSweepSpecParity pins that a sweep spec gets one verdict at the
// service edge: GET /v1/sweep, POST /v1/sweep and a cluster job submission
// (POST /v1/shards/jobs) all validate through fabric.JobSpec, so a spec one
// of them refuses cannot run through another.
func TestServedSweepSpecParity(t *testing.T) {
	_, hs := testServer(t, t.TempDir())
	for _, tc := range []struct {
		name   string
		params map[string]any
		ok     bool
	}{
		{"in cap", map[string]any{"n": 1, "seed": 5}, true},
		{"l2 lines over cap", map[string]any{"n": 1, "l2_lines": 131072, "l2_ways": 2}, false},
		{"l2 ways over cap", map[string]any{"n": 1, "l2_lines": 1024, "l2_ways": 128}, false},
		{"arrival cycles over cap", map[string]any{"n": 1, "jitter": 0.1, "arrival_cycles": 5000}, false},
		{"no scenarios", map[string]any{"n": 0}, false},
		{"apps over cap", map[string]any{"n": 1, "apps": 9}, false},
		{"maxm over cap", map[string]any{"n": 1, "maxm": 13}, false},
		{"unknown objective", map[string]any{"n": 1, "objective": "psychic"}, false},
		{"unknown budget", map[string]any{"n": 1, "budget": "nope"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := url.Values{}
			for k, v := range tc.params {
				q.Set(k, fmt.Sprint(v))
			}
			body, err := json.Marshal(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			want := http.StatusBadRequest
			if tc.ok {
				want = http.StatusOK
			}
			if code := getJSON(t, hs.URL+"/v1/sweep?"+q.Encode(), nil); code != want {
				t.Errorf("GET /v1/sweep status %d, want %d", code, want)
			}
			for _, path := range []string{"/v1/sweep", "/v1/shards/jobs"} {
				if code := postJSON(t, hs.URL+path, body); code != want {
					t.Errorf("POST %s status %d, want %d", path, code, want)
				}
			}
		})
	}
}

// TestServedBodyLimit pins the request-body cap on every JSON-decoding
// handler: a well-formed body padded past resilience.MaxBodyBytes with an
// unknown field is refused instead of being read whole.
func TestServedBodyLimit(t *testing.T) {
	_, hs := testServer(t, t.TempDir())
	pad := strings.Repeat("x", resilience.MaxBodyBytes)
	for path, body := range map[string]string{
		"/v1/design":      `{"schedules": ["1,1,1"], "budget": "tiny"`,
		"/v1/sweep":       `{"n": 1, "seed": 5`,
		"/v1/shards/jobs": `{"n": 1, "seed": 5`,
	} {
		if code := postJSON(t, hs.URL+path, []byte(body+"}")); code != http.StatusOK {
			t.Errorf("POST %s status %d, want 200", path, code)
		}
		if code := postJSON(t, hs.URL+path, []byte(body+`, "pad": "`+pad+`"}`)); code != http.StatusBadRequest {
			t.Errorf("POST %s padded past the cap: status %d, want 400", path, code)
		}
	}
}

// postJSON posts a JSON body and returns the status code.
func postJSON(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}
