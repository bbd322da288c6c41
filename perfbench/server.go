package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running `extrap serve` process.
type server struct {
	cmd  *exec.Cmd
	base string // "http://127.0.0.1:port"
	dir  string // the fresh -store-dir, removed on stop
}

// startServer launches `extrap serve` with its default flags, a free
// loopback port and a fresh store directory under workdir, and waits
// until GET /v1/healthz answers 200.
func startServer(bin, workdir string, client *http.Client) (*server, error) {
	dir, err := os.MkdirTemp(workdir, "store-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-store-dir", dir)
	cmd.Stderr = nil // request logs go to the null device
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, w, err := os.Pipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cmd.Stdout = w
	err = cmd.Start()
	w.Close()
	if err != nil {
		stdout.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{cmd: cmd, dir: dir}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	go func() { io.Copy(io.Discard, stdout); stdout.Close() }()
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("extrap serve printed no listen line: %v", err)
	}
	// "extrap serve listening on http://127.0.0.1:PORT (...)"
	for _, f := range strings.Fields(line) {
		if strings.HasPrefix(f, "http://") {
			s.base = f
		}
	}
	if s.base == "" {
		s.stop()
		return nil, fmt.Errorf("cannot parse listen line %q", line)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not ready after 30s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (serve drains and persists its store index), waits
// for the process to end, escalating to SIGKILL after 10s, and removes
// the store directory.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
	os.RemoveAll(s.dir)
}

// peakRSSMB reads VmHWM — the process's peak resident set — in MB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// serveVars is the part of GET /debug/vars the benchmark reads.
type serveVars struct {
	Serve struct {
		Requests       map[string]int64 `json:"requests"`
		LatencyUsTotal int64            `json:"latency_us_total"`
		CacheHits      int64            `json:"cache_hits"`
		CacheMisses    int64            `json:"cache_misses"`
		Sim            struct {
			Attempts     int64 `json:"ff_attempts"`
			FastForwards int64 `json:"fast_forwards"`
			ItersSkipped int64 `json:"iterations_skipped"`
		} `json:"sim"`
	} `json:"extrap_serve"`
}

func (s *server) vars(ctx context.Context, client *http.Client) (serveVars, error) {
	var v serveVars
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/debug/vars", nil)
	if err != nil {
		return v, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET /debug/vars: status %d", resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}
