package main

import (
	"context"
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

// serverProc is one spawned mixenserve.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited
}

// buildServer compiles cmd/mixenserve of the commit under test into the
// scratch directory.
func buildServer(ctx context.Context, o options) (string, error) {
	bin := filepath.Join(o.tmp, "mixenserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/mixenserve")
	cmd.Dir = o.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mixenserve: %w\n%s", err, out)
	}
	return bin, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns the server on a free loopback port and polls it every
// millisecond: ready is spawn → first 200 on /readyz, firstQuery is spawn →
// first 200 on a real query. A port lost to another process between the
// pick and the bind is retried with a fresh one.
func startServer(ctx context.Context, o options, bin string, args []string, client *http.Client) (s *serverProc, ready, firstQuery time.Duration, err error) {
	for attempt := 0; attempt < 5; attempt++ {
		s, ready, firstQuery, err = startServerOnce(ctx, o, bin, args, client)
		if !errors.Is(err, errExitedEarly) {
			break
		}
	}
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, logTail(o))
	}
	return s, ready, firstQuery, err
}

var errExitedEarly = errors.New("mixenserve exited before it was ready")

func startServerOnce(ctx context.Context, o options, bin string, args []string, client *http.Client) (*serverProc, time.Duration, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, 0, err
	}
	logFile, err := os.OpenFile(filepath.Join(o.out, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, 0, err
	}
	defer logFile.Close() // the child keeps its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(o.host.NProc))
	spawned := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()

	ok := func(path string) bool {
		resp, err := client.Get(s.base + path)
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	var ready time.Duration
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for deadline := spawned.Add(60 * time.Second); ; {
		if ready == 0 && ok("/readyz") {
			ready = time.Since(spawned)
		}
		if ready != 0 && ok("/v1/query?algo=indegree&top=1") {
			return s, ready, time.Since(spawned), nil
		}
		select {
		case <-s.exited:
			return nil, 0, 0, fmt.Errorf("%w: %v", errExitedEarly, s.err)
		case <-ctx.Done():
			s.stop()
			return nil, 0, 0, ctx.Err()
		case <-tick.C:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, 0, errors.New("mixenserve not ready within 60s")
		}
	}
}

// stop asks for a clean drain with SIGTERM and waits for the process; a
// server that has to be killed, or exits non-zero, is an error.
func (s *serverProc) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("mixenserve did not drain within 20s of SIGTERM")
	}
}

// peakRSSMB is the server's VmHWM.
func (s *serverProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// registry is the part of the server's /metrics snapshot the benchmark
// reads; counter is a counter or a gauge of that name.
type registry struct {
	Counters map[string]float64 `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

func (m registry) counter(name string) float64 {
	if v, ok := m.Counters[name]; ok {
		return v
	}
	return m.Gauges[name]
}

func (s *serverProc) metrics(client *http.Client) (registry, error) {
	var m registry
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// logTail returns the end of the captured server log, for error messages.
func logTail(o options) string {
	raw, err := os.ReadFile(filepath.Join(o.out, "server.log"))
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	return "server.log: " + strings.Join(lines[max(0, len(lines)-15):], "\n            ")
}
