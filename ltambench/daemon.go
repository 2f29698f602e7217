package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
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

// Daemon is one ltamd process started by the benchmark.
type Daemon struct {
	Base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
	err  error
}

// freeAddr reserves a loopback port for a daemon to listen on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// StartDaemon launches ltamd with args (plus -addr and a quiet log
// level), logging to logPath. It does not wait for readiness.
func StartDaemon(bin, logPath string, args ...string) (*Daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A daemon must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start ltamd: %w", err)
	}
	d := &Daemon{Base: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// WaitReady polls /v1/readyz until it answers 200.
func (d *Daemon) WaitReady(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("ltamd exited before ready: %v (see %s)", d.err, d.log.Name())
		default:
		}
		resp, err := c.Get(d.Base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ltamd at %s not ready after %s", d.Base, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// PeakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (d *Daemon) PeakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// Stop sends SIGTERM (ltamd drains and flushes its WAL) and waits for the
// process to exit, killing it if the drain overruns.
func (d *Daemon) Stop() error {
	defer d.log.Close()
	select {
	case <-d.done:
		return nil
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return nil
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("ltamd at %s did not stop within 20s; killed", d.Base)
	}
}

// getJSON fetches base+path into out.
func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
