package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one rspqd child process listening on loopback.
type server struct {
	cmd    *exec.Cmd
	base   string
	http   *http.Client
	exited chan struct{}
}

// healthz is the part of rspqd's /healthz reply the benchmark reads.
type healthz struct {
	Epoch     uint64 `json:"epoch"`
	Edges     int    `json:"edges"`
	WarmStart bool   `json:"warm_start"`
}

// startServer launches rspqd with args plus a free loopback -addr and
// returns once /healthz answers 200, with the time that took. The
// child's log goes to logPath.
func startServer(bin string, args []string, logPath string) (*server, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, d, err := tryStart(bin, args, logPath)
		if err == nil {
			return s, d, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func tryStart(bin string, args []string, logPath string) (*server, time.Duration, error) {
	addr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without cleaning up, the server dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start rspqd: %w", err)
	}
	s := &server{
		cmd:    cmd,
		base:   "http://" + addr,
		exited: make(chan struct{}),
		http:   &http.Client{Transport: &http.Transport{DisableCompression: true}},
	}
	go func() { cmd.Wait(); close(s.exited) }()
	probe := &http.Client{Timeout: time.Second}
	for deadline := t0.Add(120 * time.Second); time.Now().Before(deadline); {
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("rspqd exited during boot (see %s)", logPath)
		default:
		}
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.kill()
	return nil, 0, errors.New("rspqd did not become healthy within 120s")
}

// freePort reserves an ephemeral loopback port and releases it for the
// child to bind.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// kill sends SIGKILL and waits for the process to be reaped.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
	s.http.CloseIdleConnections()
}

// peakRSSMiB reads VmHWM, the process's peak resident set, in MiB.
func (s *server) peakRSSMiB() (float64, error) { return vmHWM(s.cmd.Process.Pid) }

func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.http.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, err
}

func (s *server) health() (healthz, error) {
	var h healthz
	b, err := s.get("/healthz")
	if err == nil {
		err = json.Unmarshal(b, &h)
	}
	return h, err
}

func (s *server) scrape() (expo, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseExposition(bytes.NewReader(b))
}
