package main

import (
	"bytes"
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
	"sync"
	"syscall"
	"time"
)

const schemaSpec = "ID:int,L:string,V:float,U:string"

// proc is one running SUT process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has exited
	err  error
}

// sut is the system under test: one sesd, or two sesd -cluster
// partitions with a sesrouter in front (router last).
type sut struct {
	procs []*proc
	base  string // where load and control requests go
}

// live lists every process started, for the run's watchdog.
var live struct {
	sync.Mutex
	procs []*proc
}

// killAll kills every process started that is still running and waits
// for it to exit.
func killAll() {
	live.Lock()
	defer live.Unlock()
	for _, p := range live.procs {
		p.cmd.Process.Kill()
		<-p.done
	}
}

// freePort reserves an ephemeral loopback port and releases it for
// the process about to bind it (the cluster membership file must name
// node addresses before the nodes start).
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startProc launches a binary with its stderr captured to a log file.
func startProc(name, bin, addr, dir string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logPath, done: make(chan struct{})}
	live.Lock()
	live.procs = append(live.procs, p)
	live.Unlock()
	go func() {
		p.err = cmd.Wait()
		lf.Close()
		close(p.done)
	}()
	return p, nil
}

// startSUT starts the workload's processes on fresh directories under
// dir with the default fsync policy.
func startSUT(w *workload, binDir, dir string) (*sut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &sut{}
	sesd := filepath.Join(binDir, "sesd")
	if !w.cluster {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		p, err := startProc("sesd", sesd, addr, dir, "-schema", schemaSpec,
			"-wal-dir", filepath.Join(dir, "wal"), "-checkpoint-dir", filepath.Join(dir, "ckpt"))
		if err != nil {
			return nil, err
		}
		s.procs, s.base = []*proc{p}, p.url
		return s, nil
	}
	var addrs []string
	member := fmt.Sprintf("key ID\nslots %d\n", clusterSlots)
	for i := 0; i < clusterParts; i++ {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
		lo, hi := i*clusterSlots/clusterParts, (i+1)*clusterSlots/clusterParts-1
		member += fmt.Sprintf("partition %d slots %d-%d leader http://%s\n", i, lo, hi, addr)
	}
	memberFile := filepath.Join(dir, "cluster.txt")
	if err := os.WriteFile(memberFile, []byte(member), 0o644); err != nil {
		return nil, err
	}
	for i, addr := range addrs {
		p, err := startProc(fmt.Sprintf("sesd%d", i), sesd, addr, dir, "-schema", schemaSpec,
			"-wal-dir", filepath.Join(dir, fmt.Sprintf("wal%d", i)),
			"-checkpoint-dir", filepath.Join(dir, fmt.Sprintf("ckpt%d", i)),
			"-cluster", memberFile, "-partition", strconv.Itoa(i))
		if err != nil {
			s.stop(nil)
			return nil, err
		}
		s.procs = append(s.procs, p)
	}
	// The router probes every partition once at start-up and exits
	// when one is not yet listening.
	if err := s.waitHealthy(newClient(), 60*time.Second); err != nil {
		s.stop(nil)
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		s.stop(nil)
		return nil, err
	}
	p, err := startProc("sesrouter", filepath.Join(binDir, "sesrouter"), addr, dir,
		"-cluster", memberFile, "-schema", schemaSpec)
	if err != nil {
		s.stop(nil)
		return nil, err
	}
	s.procs = append(s.procs, p)
	s.base = p.url
	return s, nil
}

// waitHealthy polls every process's /healthz until all answer 200.
func (s *sut) waitHealthy(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, p := range s.procs {
		for {
			select {
			case <-p.done:
				return fmt.Errorf("%s exited during start-up: %v\n%s", p.name, p.err, tail(p.log))
			default:
			}
			resp, err := c.Get(p.url + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not healthy after %s", p.name, timeout)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// register posts every registration to the SUT.
func (s *sut) register(c *http.Client, specs []querySpec) error {
	for _, spec := range specs {
		body, _ := json.Marshal(spec)
		resp, err := c.Post(s.base+"/queries", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("register %s: %w", spec.ID, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("register %s: %s: %s", spec.ID, resp.Status, msg)
		}
	}
	return nil
}

// terminate sends SIGTERM (the graceful drain) to the given processes.
func terminate(ps []*proc) {
	for _, p := range ps {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
}

// wait waits for the processes to exit, killing any still running at
// the deadline; it reports the first unclean exit.
func wait(ps []*proc, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var first error
	for _, p := range ps {
		select {
		case <-p.done:
		case <-timer.C:
			for _, q := range ps {
				q.cmd.Process.Kill()
			}
			<-p.done
			if first == nil {
				first = fmt.Errorf("%s did not exit within %s", p.name, timeout)
			}
		}
		if p.err != nil && first == nil {
			first = fmt.Errorf("%s: %v\n%s", p.name, p.err, tail(p.log))
		}
	}
	return first
}

// stop drains the SUT: nodes first, then the router, so the router's
// merged streams end cleanly. before, when non-nil, runs after the
// nodes were signalled and before the router is.
func (s *sut) stop(before func()) error {
	nodes, router := s.procs, []*proc(nil)
	if len(s.procs) > 1 {
		nodes, router = s.procs[:len(s.procs)-1], s.procs[len(s.procs)-1:]
	}
	terminate(nodes)
	if before != nil {
		before()
	}
	err := wait(nodes, 60*time.Second)
	terminate(router)
	if err2 := wait(router, 60*time.Second); err == nil {
		err = err2
	}
	return err
}

// kill ends every process without a drain and waits for each to exit.
func (s *sut) kill() {
	for _, p := range s.procs {
		p.cmd.Process.Kill()
		<-p.done
	}
}

// pause stops (SIGSTOP) or continues (SIGCONT) every SUT process; a
// stop waits, about 20 ms at most per process, until each reads as
// stopped.
func (s *sut) pause(stopped bool) {
	sig := syscall.SIGCONT
	if stopped {
		sig = syscall.SIGSTOP
	}
	for _, p := range s.procs {
		p.cmd.Process.Signal(sig)
	}
	if !stopped {
		return
	}
	for _, p := range s.procs {
		path := fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid)
		for i := 0; i < 1000; i++ {
			raw, err := os.ReadFile(path)
			if err != nil {
				break
			}
			j := bytes.LastIndexByte(raw, ')')
			if j+2 < len(raw) && raw[j+2] == 'T' {
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// cpuTicks returns the user and the system CPU clock ticks of all
// processes (/proc/<pid>/stat fields 14 and 15).
func (s *sut) cpuTicks() (user, sys int64, err error) {
	for _, p := range s.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, 0, err
		}
		i := bytes.LastIndexByte(raw, ')')
		f := strings.Fields(string(raw[i+1:]))
		if len(f) < 13 {
			return 0, 0, fmt.Errorf("short /proc stat for %s", p.name)
		}
		u, _ := strconv.ParseInt(f[11], 10, 64)
		st, _ := strconv.ParseInt(f[12], 10, 64)
		user += u
		sys += st
	}
	return user, sys, nil
}

// peakRSS returns the summed VmHWM of all processes in bytes.
func (s *sut) peakRSS() (int64, error) {
	var total int64
	for _, p := range s.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, _ := strconv.ParseInt(f[1], 10, 64)
				total += kb << 10
			}
		}
	}
	return total, nil
}

// tail returns the end of a log file for error reports.
func tail(path string) string {
	raw, _ := os.ReadFile(path)
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(raw)
}

// get fetches a document, failing on any status but 200.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, raw)
	}
	return raw, nil
}

// getJSON fetches and decodes a JSON document.
func getJSON(ctx context.Context, c *http.Client, url string, v interface{}) error {
	raw, err := get(ctx, c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}
