package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is where a run lives on this machine: the repository it builds
// the server from, the built binary, and the scratch storage for WAL
// and spill directories.
type env struct {
	root    string // checkout root (the directory holding go.mod "module smiler")
	server  string // built smiler-server binary
	scratch string // parent of per-cluster WAL/spill dirs
	storage string // "tmpfs" or "disk"
}

// findRoot walks up from the working directory to the smiler module
// root, so the benchmark runs from the checkout root (the driver) and
// from benchmark/ (go run -C benchmark .) alike.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module smiler" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: not inside the smiler repository (no go.mod with module smiler above the working directory)")
		}
		dir = parent
	}
}

// buildDir is the checkout-local build area (ignored by git): the
// server binary, the scratch fallback when tmpfs is missing, and — when
// started through run.sh — the Go build cache.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// newEnv builds cmd/smiler-server (untimed; a no-op when up to date)
// and picks the scratch storage. WAL and spill directories go to tmpfs
// because device fsync on this box varies 2.2x run to run (README,
// noise finding 1): fsync counts are measured, device latency is not.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	bd := buildDir(root)
	e := &env{root: root, server: filepath.Join(bd, "bin", "smiler-server")}
	build := exec.Command("go", "build", "-o", e.server, "./cmd/smiler-server")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building smiler-server: %v\n%s", err, out)
	}
	e.storage = "tmpfs"
	e.scratch, err = os.MkdirTemp("/dev/shm", "smiler-bench-")
	if err != nil {
		e.storage = "disk"
		tmp := filepath.Join(bd, "tmp")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		if e.scratch, err = os.MkdirTemp(tmp, "smiler-bench-"); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.scratch) }

// node is one running smiler-server child.
type node struct {
	id  string
	url string
	cmd *exec.Cmd
	log *bytes.Buffer
}

// procSet is the set of server processes of one set-up.
type procSet struct {
	nodes []*node
	dir   string
}

// live tracks every cluster with running children so a signal handler
// can stop them all; see installSignalCleanup.
var live struct {
	sync.Mutex
	clusters map[*procSet]bool
}

// freePorts reserves n distinct loopback ports by binding :0 and
// closing; the children bind them a moment later.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range lns {
		ln.Close()
	}
	return ports, nil
}

// serverArgs is the command line of node i of a workload's stack. The
// server keeps its default GOMAXPROCS, GOGC, shard and queue settings:
// the benchmark measures the configuration as shipped.
func serverArgs(sp spec, dir string, i int, ports []int) []string {
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
		"-predictor", sp.predictor,
		"-log-level", "error",
	}
	nodeDir := filepath.Join(dir, fmt.Sprintf("n%d", i+1))
	if sp.fsync != "" {
		args = append(args, "-wal-dir", filepath.Join(nodeDir, "wal"), "-fsync", sp.fsync)
	}
	if sp.maxHot > 0 {
		args = append(args, "-max-hot-sensors", strconv.Itoa(sp.maxHot), "-spill-dir", filepath.Join(nodeDir, "spill"))
	}
	if sp.nodes > 1 {
		peers := make([]string, sp.nodes)
		for j := range peers {
			peers[j] = fmt.Sprintf("n%d=http://127.0.0.1:%d", j+1, ports[j])
		}
		args = append(args, "-node-id", fmt.Sprintf("n%d", i+1),
			"-cluster-peers", strings.Join(peers, ","), "-replicas", "1")
	}
	return args
}

// startCluster spawns the workload's server processes on free ports and
// waits for every /readyz.
func (e *env) startCluster(sp spec) (*procSet, error) {
	dir, err := os.MkdirTemp(e.scratch, sp.name+"-")
	if err != nil {
		return nil, err
	}
	ports, err := freePorts(sp.nodes)
	if err != nil {
		return nil, err
	}
	cl := &procSet{dir: dir}
	live.Lock()
	if live.clusters == nil {
		live.clusters = make(map[*procSet]bool)
	}
	live.clusters[cl] = true
	live.Unlock()
	for i := 0; i < sp.nodes; i++ {
		n := &node{
			id:  fmt.Sprintf("n%d", i+1),
			url: fmt.Sprintf("http://127.0.0.1:%d", ports[i]),
			log: new(bytes.Buffer),
		}
		n.cmd = exec.Command(e.server, serverArgs(sp, dir, i, ports)...)
		n.cmd.Stderr = n.log
		if err := n.cmd.Start(); err != nil {
			cl.stop()
			return nil, err
		}
		cl.nodes = append(cl.nodes, n)
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, n := range cl.nodes {
		for {
			resp, err := http.Get(n.url + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				cl.stop()
				return nil, fmt.Errorf("node %s not ready after 20s: %v\n%s", n.id, err, n.log)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return cl, nil
}

// stop kills every child, waits for it, and removes the cluster's WAL
// and spill directories. The servers hold nothing worth a graceful
// shutdown: every measurement was taken while they ran.
func (cl *procSet) stop() {
	for _, n := range cl.nodes {
		if n.cmd.Process != nil {
			_ = n.cmd.Process.Kill()
			_ = n.cmd.Wait()
		}
	}
	os.RemoveAll(cl.dir)
	live.Lock()
	delete(live.clusters, cl)
	live.Unlock()
}

func (cl *procSet) pids() []int {
	pids := make([]int, len(cl.nodes))
	for i, n := range cl.nodes {
		pids[i] = n.cmd.Process.Pid
	}
	return pids
}

// stopAllClusters is the signal path: kill what is running now.
func stopAllClusters() {
	live.Lock()
	cls := make([]*procSet, 0, len(live.clusters))
	for cl := range live.clusters {
		cls = append(cls, cl)
	}
	live.Unlock()
	for _, cl := range cls {
		cl.stop()
	}
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux ABI Go targets.
const clockTick = 100

// parseStatCPU extracts utime+stime, in seconds, from the contents of
// /proc/<pid>/stat. The comm field may contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no comm field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: bad utime/stime")
	}
	return float64(ut+st) / clockTick, nil
}

// parseStatusHWM extracts VmHWM (peak resident set), in MB, from the
// contents of /proc/<pid>/status.
func parseStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: bad VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("proc status: no VmHWM")
}

// sumProc reads /proc/<pid>/<file> for every process and adds up what
// parse makes of it.
func sumProc(pids []int, file string, parse func(string) (float64, error)) (float64, error) {
	var total float64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
		if err != nil {
			return 0, err
		}
		v, err := parse(string(b))
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// cpuSeconds sums utime+stime over the processes.
func cpuSeconds(pids []int) (float64, error) { return sumProc(pids, "stat", parseStatCPU) }

// rssPeakMB sums VmHWM over the processes.
func rssPeakMB(pids []int) (float64, error) { return sumProc(pids, "status", parseStatusHWM) }

// installSignalCleanup makes SIGINT/SIGTERM stop the children and
// remove the scratch storage before the process exits.
func installSignalCleanup(e *env) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		stopAllClusters()
		e.close()
		os.Exit(130)
	}()
}
