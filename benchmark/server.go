package main

// The program under test: `tessel serve` built from the checkout and run as
// a subprocess with default flags, seen only through its HTTP endpoints and
// its /proc entry.

import (
	"context"
	"encoding/json"
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

// paths says where the checkout is and where the benchmark may write.
type paths struct {
	root string // the module root, where ./cmd/tessel resolves
	out  string // receives the binaries, result.json, trace.json and the probe plan
}

// buildBinary compiles a main package of the checkout into the out
// directory.
func (p paths) buildBinary(ctx context.Context, pkg, name string) (string, error) {
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(p.out, name))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, pkg)
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin, nil
}

// server is one running `tessel serve`.
type server struct {
	cmd     *exec.Cmd
	base    string // "http://127.0.0.1:<port>"
	hc      *http.Client
	stopped bool
}

// startServer picks a free loopback port by binding and releasing it, starts
// the server there and waits for /readyz.
func startServer(ctx context.Context, bin string, clients int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, "serve", "-addr", addr)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients + 1,
			DisableCompression:  true,
		}},
	}
	for {
		resp, err := s.hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
			err = fmt.Errorf("/readyz: status %d", resp.StatusCode)
		}
		if time.Since(start) > 20*time.Second || ctx.Err() != nil {
			s.stop()
			return nil, fmt.Errorf("server at %s not ready after %s: %v", addr, time.Since(start).Round(time.Millisecond), err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the server to drain, kills it if it does not, and waits for it.
func (s *server) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.hc.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// serverStats are the /v1/stats counters the benchmark reads.
type serverStats struct {
	Hits                   uint64 `json:"hits"`
	Misses                 uint64 `json:"misses"`
	Shared                 uint64 `json:"shared"`
	Evictions              uint64 `json:"evictions"`
	Admitted               uint64 `json:"admitted"`
	Queued                 uint64 `json:"queued"`
	Shed                   uint64 `json:"shed"`
	SolverWorkersEffective int    `json:"solver_workers_effective"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	resp, err := s.hc.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; Linux
// fixes it at 100 for every architecture Go runs on.
const clockTick = 10 * time.Millisecond

// cpuTime is the server's user + system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	i := strings.LastIndexByte(string(data), ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// memoryMB reads one field of /proc/<pid>/status, in MB: VmRSS, the
// resident set right now, or VmHWM, its high-water mark.
func (s *server) memoryMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected %s line %q", field, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sampleRSS reads VmRSS every interval until stop is called, which returns
// the samples.
func (s *server) sampleRSS(interval time.Duration) (stop func() []float64) {
	var samples []float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			if mb, err := s.memoryMB("VmRSS"); err == nil {
				samples = append(samples, mb)
			}
			select {
			case <-tick.C:
			case <-quit:
				return
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return samples
	}
}
