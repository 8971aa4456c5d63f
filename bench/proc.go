package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// served is one running cmd/served subprocess.
type served struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed

	mu   sync.Mutex
	tail []string // last output lines, for diagnostics
}

// startServed starts the served binary on a free loopback port and
// returns once it is listening.
func startServed(bin string, args ...string) (*served, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start served: %w", err)
	}
	s := &served{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if s.tail = append(s.tail, line); len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "served listening on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case addr <- f[0]:
					default:
					}
				}
			}
		}
		io.Copy(io.Discard, out)
	}()
	go func() {
		<-drained // Wait closes the pipe; read it to the end first
		s.err = cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("served exited before listening: %v: %s", s.err, s.output())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("served did not start listening within 30s: %s", s.output())
	}
}

func (s *served) output() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// pid names the process for /proc lookups.
func (s *served) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// waitReady polls /readyz until it answers 200.
func (s *served) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("served exited before ready: %v: %s", s.err, s.output())
		case <-time.After(time.Millisecond):
		}
	}
	return fmt.Errorf("served not ready within 30s: %s", s.output())
}

// stop shuts the server down gracefully (SIGTERM), killing it if it does
// not exit in time, and waits for it.
func (s *served) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("served did not shut down within 15s")
	}
	if s.err != nil {
		return fmt.Errorf("served: %v: %s", s.err, s.output())
	}
	return nil
}

// statsz fetches /statsz.
func (s *served) statsz(hc *http.Client) (map[string]any, error) {
	resp, err := hc.Get(s.url + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	return m, nil
}

// num reads a number at a dotted path of a decoded /statsz document,
// 0 when absent.
func num(m map[string]any, path string) float64 {
	var cur any = m
	for _, k := range strings.Split(path, ".") {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = obj[k]
	}
	f, _ := cur.(float64)
	return f
}

// startReady starts a server and waits until it is ready, returning the
// time from launch to the first /readyz 200.
func startReady(bin string, hc *http.Client, args ...string) (*served, float64, error) {
	t0 := time.Now()
	s, err := startServed(bin, args...)
	if err != nil {
		return nil, 0, err
	}
	if err := s.waitReady(hc); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(t0).Seconds(), nil
}
