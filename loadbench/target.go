package main

import (
	"bytes"
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

	"higgs/internal/shard"
)

// The one daemon configuration every workload runs against, so that only
// the traffic differs between workloads. The in-process traced stack
// assembles the same configuration from the public constructors.
const (
	shards           = 2
	cacheBytes       = 16 << 20
	admitHeavy       = 2
	snapshotInterval = time.Minute
)

// daemonArgs returns higgsd's flags for one boot.
func daemonArgs(addr, pprofAddr, walDir string) []string {
	return []string{
		"-addr", addr,
		"-shards", strconv.Itoa(shards),
		"-wal-dir", walDir,
		"-ingest-mode", "auto",
		"-snapshot-interval", snapshotInterval.String(),
		"-analytics",
		"-admit-heavy", strconv.Itoa(admitHeavy),
		"-cache-bytes", strconv.Itoa(cacheBytes),
		"-pprof-addr", pprofAddr,
	}
}

// target is a serving higgs stack: a higgsd process, or the in-process
// traced assembly.
type target interface {
	base() string // API root, http://host:port
	gc() error    // force a garbage collection in the server
	stop()
}

// daemons tracks every higgsd this process started, so an interrupt can
// stop them all before exiting.
var daemons = struct {
	sync.Mutex
	m map[*daemon]bool
}{m: map[*daemon]bool{}}

// daemon is one higgsd process on loopback.
type daemon struct {
	cmd       *exec.Cmd
	api, prof string
	exited    chan struct{}
}

// freeAddrs returns two loopback addresses with distinct, currently
// unused ports: both listeners stay open until both are chosen.
func freeAddrs() (string, string, error) {
	a, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	defer a.Close()
	b, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	defer b.Close()
	return a.Addr().String(), b.Addr().String(), nil
}

// startDaemon boots bin on a fresh WAL directory under dir and waits
// until /healthz answers. A port chosen free can be taken by another
// process before the daemon binds it, so a failed boot is retried.
func startDaemon(bin, dir string) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = bootDaemon(bin, dir); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func bootDaemon(bin, dir string) (*daemon, error) {
	api, prof, err := freeAddrs()
	if err != nil {
		return nil, err
	}
	// A WAL left in dir would be recovered and change the experiment.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "higgsd.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, daemonArgs(api, prof, filepath.Join(dir, "wal"))...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start higgsd: %w", err)
	}
	d := &daemon{cmd: cmd, api: "http://" + api, prof: "http://" + prof, exited: make(chan struct{})}
	daemons.Lock()
	daemons.m[d] = true
	daemons.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon carries nothing
		close(d.exited)
	}()
	if err := waitReady(d.api, d.exited, 60*time.Second); err != nil {
		d.stop()
		tail, _ := os.ReadFile(logPath)
		return nil, fmt.Errorf("higgsd did not come up: %v\n%s", err, tail)
	}
	return d, nil
}

func (d *daemon) base() string { return d.api }

// cpu returns the CPU time (user + system) the daemon has used so far,
// from /proc/<pid>/stat in clock ticks of 10 ms. Time stolen from the VM
// is not in it, unlike wall-clock latency.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces; the fields
	// after it start at field 3 (state), so utime and stime (fields 14
	// and 15) are the 12th and 13th.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", raw)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

func (d *daemon) gc() error {
	resp, err := ctl.Get(d.prof + "/debug/pprof/heap?gc=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pprof heap: %s", resp.Status)
	}
	return nil
}

// stop kills the daemon and waits until it has exited. Its WAL directory
// is thrown away afterwards, so no orderly shutdown is needed.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.exited
	daemons.Lock()
	delete(daemons.m, d)
	daemons.Unlock()
}

// stopAll stops every daemon still running.
func stopAll() {
	daemons.Lock()
	ds := make([]*daemon, 0, len(daemons.m))
	for d := range daemons.m {
		ds = append(ds, d)
	}
	daemons.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// waitReady polls /healthz until it answers 200.
func waitReady(base string, exited <-chan struct{}, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := ctl.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for keep-alive; the status is what counts
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return fmt.Errorf("exited during start-up")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no answer within %v (last error: %v)", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ctl is the client of untimed control requests: preload, flush, stats,
// verification.
var ctl = &http.Client{Timeout: 120 * time.Second}

// post sends body to base+path and decodes a 2xx JSON answer into out.
func post(base, path string, body []byte, out any) (int, error) {
	resp, err := ctl.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("POST %s: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

func getJSON(url string, out any) error {
	resp, err := ctl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// flush is the /v1/flush barrier; it returns the daemon's item count.
func flush(base string) (int64, error) {
	var out struct {
		Items int64 `json:"items"`
	}
	_, err := post(base, "/v1/flush", nil, &out)
	return out.Items, err
}

func stats(base string) (shard.Stats, error) {
	var st shard.Stats
	err := getJSON(base+"/v1/stats", &st)
	return st, err
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Memory struct {
		HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	} `json:"memory"`
	ReadCache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"read_cache"`
}

func healthz(base string) (health, error) {
	var h health
	err := getJSON(base+"/healthz", &h)
	return h, err
}
