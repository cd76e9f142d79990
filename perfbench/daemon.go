package main

// The daemon under test: a real indoorqd child process recovering a
// fresh store copy, with every flag but its listen address and store
// directory left at the default.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clockTicks = 100

type daemon struct {
	cmd  *exec.Cmd
	base string
	dir  string     // the store directory it recovered
	done chan error // receives Wait's result once
	log  *os.File

	stopOnce sync.Once
	stopErr  error
}

// startDaemon launches bin on dir and waits until /readyz answers 200,
// returning the wait: spawn to ready, i.e. checkpoint decode, log replay,
// index build and subscription re-registration.
func startDaemon(bin, dir, logPath string) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-dir", dir)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The daemon never outlives the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, fmt.Errorf("start indoorqd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dir: dir, done: make(chan error, 1), log: lf}
	go func() { d.done <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(150 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				setup := time.Since(start)
				probe.CloseIdleConnections()
				return d, setup, nil
			}
		}
		select {
		case err := <-d.done:
			d.log.Close()
			return nil, 0, fmt.Errorf("indoorqd exited before ready (%v); log in %s", err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("indoorqd not ready after %v; log in %s", time.Since(start), logPath)
		}
	}
}

// stop sends SIGTERM (a graceful shutdown that flushes and fsyncs the
// log) and waits for the exit, killing the process if it hangs. Safe to
// call more than once; later calls return the first result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		defer d.log.Close()
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case d.stopErr = <-d.done:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
			d.stopErr = errors.New("indoorqd ignored SIGTERM for 30s; killed")
		}
	})
	return d.stopErr
}

// cpuSeconds is the daemon's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB is the daemon's VmHWM: its resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
