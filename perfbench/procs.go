package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// toolRun is one finished run of a batch program under test.
type toolRun struct {
	stdout []byte
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set
}

// runTool runs a program under test to completion from the repository
// root, capturing its standard output and its own resource usage.
func runTool(ctx context.Context, e *env, name string, args ...string) (*toolRun, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, e.binary(name), args...)
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	wall := time.Since(start)
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("%s: no resource usage", name)
	}
	return &toolRun{
		stdout: stdout.Bytes(),
		wall:   wall,
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rssMB:  float64(ru.Maxrss) / 1024, // Linux reports kilobytes
	}, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// server is one running predictd.
type server struct {
	cmd  *exec.Cmd
	url  string // http://host:port
	done chan error
}

// startServer boots predictd on an ephemeral port and waits until it
// listens. The caller must stop it.
func startServer(ctx context.Context, e *env, n int) (*server, error) {
	ready := filepath.Join(e.work, fmt.Sprintf("predictd-%d.ready", n))
	if err := os.Remove(ready); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(e.work, fmt.Sprintf("predictd-%d.log", n)))
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(e.binary("predictd"), "-addr", "127.0.0.1:0", "-ready-file", ready)
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	go func() {
		err := cmd.Wait()
		select {
		case s.done <- err:
		default: // unreachable: the buffer holds this one send
		}
	}()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(30 * time.Second)
	for {
		if b, err := os.ReadFile(ready); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			s.url = "http://" + strings.TrimSpace(string(b))
			return s, nil
		}
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("predictd exited before listening: %v", err)
		case <-deadline:
			return nil, errors.Join(errors.New("predictd did not listen within 30s"), s.stop())
		case <-ctx.Done():
			return nil, errors.Join(ctx.Err(), s.stop())
		case <-tick.C:
		}
	}
}

// stop drains the server with SIGTERM, killing it if the drain hangs,
// and waits until it has exited.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(15 * time.Second):
		if err := s.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
			return err
		}
		<-s.done
		return errors.New("predictd did not drain within 15s")
	}
}

// clockTicks is the kernel's USER_HZ, fixed at 100 by the Linux ABI.
const clockTicks = 100

// cpu returns the server's user + system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err := strconv.ParseInt(f[11], 10, 64) // field 14 of stat(5)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(f[12], 10, 64) // field 15
	if err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// mark restarts the server's peak resident set from its current size
// (clear_refs, see proc(5)) and returns its CPU time so far.
func (s *server) mark() (time.Duration, error) {
	if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", s.cmd.Process.Pid), []byte("5"), 0); err != nil {
		return 0, err
	}
	return s.cpu()
}

// since returns the server's CPU time since cpu0 and its peak resident
// set since the last mark.
func (s *server) since(cpu0 time.Duration) (time.Duration, float64, error) {
	cpu, err := s.cpu()
	if err != nil {
		return 0, 0, err
	}
	rss, err := s.peakRSSMB()
	return cpu - cpu0, rss, err
}

// peakRSSMB returns the server's peak resident set (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// newClient returns a keep-alive client holding at most conns
// connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

// get fetches one URL and returns its status and whole body.
func get(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
