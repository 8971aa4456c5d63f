package chaos

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// statusSequence serves n identical GETs through a middleware built
// from cfg over a backend handler that always answers 200, and returns
// the status codes in order.
func statusSequence(cfg Config, n int) []int {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`"v"`))
	})
	mw := NewMiddleware(inner, cfg)
	codes := make([]int, 0, n)
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		mw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		codes = append(codes, rec.Code)
	}
	return codes
}

// TestBackendDeterministicFaultSchedule pins the seeded stream: two
// identically seeded middlewares in front of identical backends deal
// identical faults over identical traffic.
func TestBackendDeterministicFaultSchedule(t *testing.T) {
	cfg := Config{Seed: 99, ErrRate: 0.5}
	a, b := statusSequence(cfg, 40), statusSequence(cfg, 40)
	failed := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: identically seeded runs diverged (%d vs %d)", i, a[i], b[i])
		}
		if a[i] != http.StatusOK {
			failed++
		}
	}
	if failed == 0 || failed == len(a) {
		t.Fatalf("ErrRate 0.5 failed %d of %d requests", failed, len(a))
	}
}

// TestBackendZeroConfigIsTransparent: a middleware with a zero Config
// deals no faults, so every request reaches the backend and succeeds.
func TestBackendZeroConfigIsTransparent(t *testing.T) {
	for i, code := range statusSequence(Config{}, 40) {
		if code != http.StatusOK {
			t.Fatalf("zero Config failed request %d with %d", i, code)
		}
	}
}

func TestMiddlewareInjects500s(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	srv := httptest.NewServer(NewMiddleware(inner, Config{Seed: 5, ErrRate: 0.5}))
	defer srv.Close()
	codes := map[int]int{}
	for i := 0; i < 40; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes[resp.StatusCode]++
	}
	if codes[http.StatusOK] == 0 || codes[http.StatusInternalServerError] == 0 {
		t.Fatalf("ErrRate 0.5 produced %v; want both 200s and 500s", codes)
	}
}

func TestMiddlewareBlackholeAbortsConnection(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	mw := NewMiddleware(inner, Config{Seed: 1})
	srv := httptest.NewServer(mw)
	defer srv.Close()
	mw.Blackhole(2)
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
			t.Fatalf("blackholed request %d got a response (status %d)", i, resp.StatusCode)
		}
		var ue interface{ Unwrap() error }
		if !errors.As(err, &ue) {
			t.Fatalf("blackholed request error %T: %v", err, err)
		}
	}
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("request after blackhole budget: %v", err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); string(body) != "ok" {
		t.Fatalf("post-blackhole body %q", body)
	}
	if st := mw.Stats(); st.Blackholed != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMiddlewareCorruptsBody(t *testing.T) {
	payload, _ := json.Marshal(map[string]string{"key": "value", "pad": "0123456789"})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload)
	})
	srv := httptest.NewServer(NewMiddleware(inner, Config{Seed: 1, CorruptRate: 1}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("headers not preserved through corruption: %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) != len(payload) {
		t.Fatalf("corruption changed length: %d vs %d", len(body), len(payload))
	}
	var v map[string]string
	if json.Unmarshal(body, &v) == nil {
		t.Fatalf("mangled body still parses: %q", body)
	}
}
