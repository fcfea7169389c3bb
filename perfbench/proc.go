package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childTimeout bounds any one child process, so a wedged program fails
// the run instead of hanging it.
const childTimeout = 150 * time.Second

// usage is the resource account of a set of processes: CPU summed, RSS
// maximised.
type usage struct {
	CPU     float64 // user+sys seconds, summed over processes
	PeakRSS int64   // KiB, the largest max-RSS of any process
}

// add folds one reaped process into the account.
func (u *usage) add(ps *os.ProcessState) {
	if ps == nil {
		return
	}
	u.CPU += (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok && ru.Maxrss > u.PeakRSS {
		u.PeakRSS = ru.Maxrss
	}
}

// childEnv derives a child's environment from base: no result cache from
// the caller's environment, GOMAXPROCS pinned to procs, temporary files
// kept under tmp.
func childEnv(base []string, procs int, tmp string) []string {
	var env []string
	for _, kv := range base {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GLACSWEB_CACHE", "GOMAXPROCS", "TMPDIR":
			continue
		}
		env = append(env, kv)
	}
	return append(env, "GOMAXPROCS="+strconv.Itoa(procs), "TMPDIR="+tmp)
}

// tool runs one of the program's binaries as child processes.
type tool struct {
	path string
	env  []string
}

// run executes the tool in dir and waits for it. A nonzero exit is an
// error carrying the tail of stderr; the process state is returned either
// way so its resources still count.
func (t tool) run(dir string, args ...string) (stdout, stderr string, ps *os.ProcessState, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, t.path, args...)
	cmd.Dir, cmd.Env = dir, t.env
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	if err != nil {
		err = fmt.Errorf("%s %s: %w: %s", t.path, strings.Join(args, " "), err, tail(errb.String(), 400))
	}
	return out.String(), errb.String(), cmd.ProcessState, err
}

func tail(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		return "..." + s[len(s)-n:]
	}
	return s
}

// workerProc is one loopback `glacsim -worker` daemon.
type workerProc struct {
	cmd    *exec.Cmd
	Addr   string
	exited chan struct{}
	stderr *lockedBuffer
}

// workerMaxShards is each worker's concurrent-shard bound. The
// coordinator keeps one shard in flight per worker, but a worker frees its
// slot only as its handler returns, which can be after the coordinator has
// decoded the reply and sent the next shard. At a bound of 1 that race drew
// 22 503s, each a requeue and a 250 ms pause, in 12 campaigns. The spare
// slots absorb it; a 503 that still happens counts as a failed operation.
const workerMaxShards = 4

// listenPrefix is the line a worker prints once it has bound its port.
const listenPrefix = "glacsim worker listening on "

// startWorker launches a worker on an ephemeral loopback port and reads
// its address from the listening line.
func startWorker(t tool, dir, cacheDir string) (*workerProc, error) {
	cmd := exec.Command(t.path, "-worker", "-listen", "127.0.0.1:0",
		"-max-shards", itoa(workerMaxShards), "-workers", "1", "-cache", cacheDir)
	cmd.Dir, cmd.Env = dir, t.env
	first := &firstLine{ch: make(chan string, 1)}
	w := &workerProc{cmd: cmd, exited: make(chan struct{}), stderr: &lockedBuffer{}}
	cmd.Stdout, cmd.Stderr = first, w.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start worker: %w", err)
	}
	// The reaper is the only caller of Wait; exited closes once the
	// process is gone and its resources are final. stop reads the exit
	// status from cmd.ProcessState, so Wait's error adds nothing.
	go func() { _ = cmd.Wait(); close(w.exited) }()
	select {
	case line := <-first.ch:
		if !strings.HasPrefix(line, listenPrefix) {
			w.stop()
			return nil, fmt.Errorf("worker printed %q, want %q ADDR", line, listenPrefix)
		}
		w.Addr = strings.TrimSpace(strings.TrimPrefix(line, listenPrefix))
		return w, nil
	case <-w.exited:
		return nil, fmt.Errorf("worker exited before listening: %s", tail(w.stderr.String(), 400))
	case <-time.After(30 * time.Second):
		w.stop()
		return nil, fmt.Errorf("worker printed no listening line within 30s")
	}
}

// waitHealthy polls /healthz until the worker reports status ok.
func (w *workerProc) waitHealthy(timeout time.Duration) error {
	return waitHealthz(w.Addr, timeout, w.exited)
}

// waitHealthz polls http://addr/healthz until it answers status ok, the
// process behind it exits (exited closes) or the timeout passes.
func waitHealthz(addr string, timeout time.Duration, exited <-chan struct{}) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-exited:
			return fmt.Errorf("worker %s exited before it was healthy", addr)
		default:
		}
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			_ = resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && h.Status == "ok" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker %s not healthy after %s (last error: %v)", addr, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the worker and reaps it. died reports that it had
// already exited on its own — a worker must live until it is stopped.
func (w *workerProc) stop() (ps *os.ProcessState, died bool) {
	select {
	case <-w.exited:
		return w.cmd.ProcessState, true
	default:
	}
	// A failed signal means the process already exited; exited closes.
	_ = w.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-w.exited:
	case <-time.After(10 * time.Second):
		_ = w.cmd.Process.Kill()
		<-w.exited
	}
	return w.cmd.ProcessState, false
}

// firstLine is a stdout sink that hands over the first complete line and
// discards the rest.
type firstLine struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	ch   chan string
}

func (f *firstLine) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sent {
		return len(p), nil
	}
	f.buf = append(f.buf, p...)
	if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
		f.ch <- string(f.buf[:i])
		f.sent, f.buf = true, nil
	}
	return len(p), nil
}

// lockedBuffer is a bytes.Buffer safe to read while a child writes it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
