package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcws/internal/httpx"
	"dcws/internal/memnet"
)

// node is one running dcwsd process.
type node struct {
	role  string // "home" or "coop"
	addr  string
	pprof string // side listener, traced runs only
	root  string
	cmd   *exec.Cmd
	done  chan struct{} // closed once the process has been waited for
}

// cluster is the set of dcwsd processes of one set-up.
type cluster struct {
	nodes []*node
	home  *node
}

// freePort reserves an ephemeral loopback port and releases it for the
// child to bind.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// launch starts the home (serving siteRoot) and the co-ops, each on a
// fresh root under dir, and returns once the processes are started.
func launch(bin, dir, siteRoot string, coops int, wal, traced bool) (*cluster, error) {
	c := &cluster{}
	addrs := make([]string, coops+1)
	for i := range addrs {
		a, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	for i, addr := range addrs {
		n := &node{role: "home", addr: addr, root: siteRoot, done: make(chan struct{})}
		if i > 0 {
			n.role = "coop"
			n.root = filepath.Join(dir, fmt.Sprintf("coop%d", i))
			if err := os.MkdirAll(n.root, 0o755); err != nil {
				c.stop()
				return nil, err
			}
		}
		args := []string{"-addr", addr, "-root", n.root}
		if i == 0 {
			args = append(args, "-entry", "/index.html")
		}
		var peers []string
		for j, p := range addrs {
			if j != i {
				peers = append(peers, p)
			}
		}
		if len(peers) > 0 {
			args = append(args, "-peers", strings.Join(peers, ","))
		}
		if wal {
			args = append(args, "-wal", filepath.Join(dir, fmt.Sprintf("wal%d", i)))
		}
		if traced {
			p, err := freePort()
			if err != nil {
				c.stop()
				return nil, err
			}
			n.pprof = p
			args = append(args, "-pprof", p)
		}
		if err := n.start(bin, args, filepath.Join(dir, fmt.Sprintf("dcwsd%d.log", i))); err != nil {
			c.stop()
			return nil, fmt.Errorf("start dcwsd: %w", err)
		}
		c.nodes = append(c.nodes, n)
	}
	c.home = c.nodes[0]
	return c, nil
}

// start runs bin with args, its output to logPath, and closes n.done once
// the process has been waited for.
func (n *node) start(bin string, args []string, logPath string) error {
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	n.cmd = exec.Command(bin, args...)
	n.cmd.Stdout = logf
	n.cmd.Stderr = logf
	// The kernel kills the server if this process dies first.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := n.cmd.Start(); err != nil {
		logf.Close()
		return err
	}
	go func() {
		n.cmd.Wait()
		logf.Close()
		close(n.done)
	}()
	return nil
}

// waitReady polls every server's ping endpoint until all answer.
func (c *cluster) waitReady(timeout time.Duration) error {
	cl := httpx.NewClient(memnet.TCP{})
	deadline := time.Now().Add(timeout)
	for _, n := range c.nodes {
		for {
			select {
			case <-n.done:
				return fmt.Errorf("dcwsd %s exited during start-up", n.addr)
			default:
			}
			resp, err := cl.GetTimeout(n.addr, "/~dcws/ping", nil, time.Second)
			if err == nil && resp.Status == 200 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("dcwsd %s not ready after %v", n.addr, timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// stop terminates every server and waits for each to exit.
func (c *cluster) stop() {
	if c == nil {
		return
	}
	for _, n := range c.nodes {
		n.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, n := range c.nodes {
		select {
		case <-n.done:
		case <-time.After(5 * time.Second):
			n.cmd.Process.Kill()
			<-n.done
		}
	}
}

// procStat is the slice of /proc a run reads for each server.
type procStat struct {
	cpu      time.Duration // time on a CPU, all threads
	ctxSw    int64         // voluntary + involuntary, all threads
	rssPeakB int64         // VmHWM
}

// readProc sums the /proc counters of every thread of process pid.
func readProc(pid int) (procStat, error) {
	var st procStat
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
	if len(tasks) == 0 {
		return st, fmt.Errorf("no process %d", pid)
	}
	for _, t := range tasks {
		st.cpu += schedTime(t)
		st.ctxSw += statusField(t+"/status", "voluntary_ctxt_switches:") + statusField(t+"/status", "nonvoluntary_ctxt_switches:")
	}
	st.rssPeakB = statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:") * 1024
	return st, nil
}

// schedTime is the time a task has run on a CPU, from its schedstat: exact
// to the nanosecond, where utime and stime count 10 ms ticks.
func schedTime(task string) time.Duration {
	data, err := os.ReadFile(task + "/schedstat")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	ns, _ := strconv.ParseInt(f[0], 10, 64)
	return time.Duration(ns)
}

// statusField reads one numeric field of a /proc status file (0 if absent).
func statusField(path, key string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// procTotals sums the /proc counters of every server.
func (c *cluster) procTotals() procStat {
	var sum procStat
	for _, n := range c.nodes {
		st, err := readProc(n.cmd.Process.Pid)
		if err != nil {
			continue
		}
		sum.cpu += st.cpu
		sum.ctxSw += st.ctxSw
		sum.rssPeakB += st.rssPeakB
	}
	return sum
}
