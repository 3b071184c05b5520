//go:build unix

package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mixen"
)

// beServerEnv makes the test binary run main() instead of the tests, so a
// test can start the real process — flags, listener, signal handling — and
// signal it.
const beServerEnv = "MIXENSERVE_TEST_BE_SERVER"

func TestMain(m *testing.M) {
	if os.Getenv(beServerEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSignalRightAfterReadinessDrains: a SIGTERM sent the instant the
// server first answers /healthz must drain and exit 0, not kill the process
// — the handlers are installed before the listener starts.
func TestSignalRightAfterReadinessDrains(t *testing.T) {
	g := testGraph(t)
	eng, err := mixen.New(g, mixen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mixp := filepath.Join(t.TempDir(), "serve.mixp")
	if err := mixen.WritePartition(mixp, eng); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()

		cmd := exec.Command(os.Args[0], "-partition", mixp, "-addr", addr, "-threads", "1")
		cmd.Env = append(os.Environ(), beServerEnv+"=1")
		var logs bytes.Buffer
		cmd.Stderr = &logs
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Poll without sleeping: the signal has to land as early after the
		// first answer as a client can manage.
		url := fmt.Sprintf("http://%s/healthz", addr)
		deadline := time.Now().Add(20 * time.Second)
		for {
			resp, err := http.Get(url)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("trial %d: server never became ready\n%s", trial, logs.String())
			}
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("trial %d: SIGTERM right after readiness: %v, want a clean exit\n%s", trial, err, logs.String())
		}
		if !strings.Contains(logs.String(), "drained cleanly") {
			t.Fatalf("trial %d: exit 0 without draining:\n%s", trial, logs.String())
		}
	}
}
