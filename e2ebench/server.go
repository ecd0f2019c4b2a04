package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/hkprserver from the working tree.
func buildServer(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/hkprserver")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building hkprserver: %w", err)
	}
	return nil
}

// server is one running hkprserver process on loopback, started with only
// -graph and -addr so every other setting is the program's default.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	setup  time.Duration // exec to the first 200 from /healthz
	exited chan struct{}
	log    *os.File
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startServer(bin, graphPath, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a loopback port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		base: "http://" + addr,
		// At most two connections: two sessions, or one reader and one
		// writer.
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     sessions,
				MaxIdleConnsPerHost: sessions,
				DisableCompression:  true,
			},
		},
		exited: make(chan struct{}),
		log:    logf,
	}
	s.cmd = exec.Command(bin, "-graph", graphPath, "-addr", addr)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.cmd.SysProcAttr = killWithParent()
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting hkprserver: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is reported through the log
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for deadline := start.Add(60 * time.Second); time.Now().Before(deadline); {
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("hkprserver exited during start-up; log: %s", tail(logPath))
		default:
		}
		if resp, err := probe.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("hkprserver not healthy after 60s; log: %s", tail(logPath))
}

// stop sends SIGTERM (the server drains and exits) and waits for the process
// to end, killing it if it has not exited within 10 seconds.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

// killWithParent makes a child process receive SIGKILL if the benchmark
// dies first, so an interrupted run leaves no server behind.
func killWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// do sends one request and returns the status, the body and the round
// trip from sending the request to having read the whole body.
func (s *server) do(req *http.Request) (int, []byte, time.Duration, error) {
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(start), err
}

func (s *server) get(path string) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	return s.do(req)
}

func (s *server) getJSON(path string, v any) error {
	status, body, _, err := s.get(path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

func (s *server) post(path string, payload any) (int, []byte, time.Duration, error) {
	b, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.do(req)
}

// serveStats is the part of /stats the benchmark reads, outside timed
// windows.
type serveStats struct {
	Serving struct {
		Executions             int64 `json:"executions"`
		CacheEntries           int64 `json:"cache_entries"`
		CacheBytes             int64 `json:"cache_bytes"`
		UpdatesApplied         int64 `json:"updates_applied"`
		CacheInvalidatedRadius int64 `json:"cache_invalidated_radius"`
		CacheInvalidatedStale  int64 `json:"cache_invalidated_stale"`
	} `json:"serving"`
}

// invariantCounters sums hkpr_serve_invariant_checks_total and every
// hkpr_serve_invariant_violations_total series in /metrics.
func (s *server) invariantCounters() (checks, violations float64, err error) {
	status, body, _, err := s.get("/metrics")
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	found := false
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, perr := strconv.ParseFloat(fields[1], 64)
		switch {
		case perr != nil:
		case fields[0] == "hkpr_serve_invariant_checks_total":
			checks, found = v, true
		case strings.HasPrefix(fields[0], "hkpr_serve_invariant_violations_total"):
			violations += v
		}
	}
	if !found {
		return 0, 0, errors.New("/metrics has no hkpr_serve_invariant_checks_total")
	}
	return checks, violations, nil
}

// peakRSSMiB reads VmHWM, the peak resident set size, of process pid.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
