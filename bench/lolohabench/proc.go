package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one lolohad child process. Each runs in its own process group
// and is registered in live from start to reap, so stopAll can reach every
// daemon on any exit path: normal return, error, panic or signal.
type daemon struct {
	name     string
	cmd      *exec.Cmd
	httpAddr string
	tcpAddr  string // empty without -tcp
	out      *lineWatcher
	done     chan struct{} // closed once the process has been reaped
}

var live = struct {
	mu      sync.Mutex
	closed  bool
	daemons map[*daemon]struct{}
}{daemons: map[*daemon]struct{}{}}

// stopTimeout is how long a daemon gets to drain and exit after SIGTERM
// before its process group is killed.
const stopTimeout = 5 * time.Second

// startDaemon starts bin with args at the given GOMAXPROCS and waits until
// it has printed its listen addresses (its listeners are bound by then).
func startDaemon(bin, name string, procs int, wantTCP bool, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// Pdeathsig covers the one path no deferred stop can: the benchmark
	// itself being killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{name: name, cmd: cmd, out: newLineWatcher(wantTCP), done: make(chan struct{})}
	cmd.Stdout = d.out
	cmd.Stderr = d.out

	live.mu.Lock()
	if live.closed {
		live.mu.Unlock()
		return nil, errors.New("benchmark is shutting down")
	}
	if err := cmd.Start(); err != nil {
		live.mu.Unlock()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	live.daemons[d] = struct{}{}
	live.mu.Unlock()
	go func() {
		cmd.Wait()
		close(d.done)
	}()

	select {
	case <-d.out.ready:
		d.httpAddr, d.tcpAddr = d.out.addrs()
		return d, nil
	case <-d.done:
		d.stop()
		return nil, fmt.Errorf("%s exited before it was ready:\n%s", name, d.out.text())
	case <-time.After(15 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s not ready after 15s:\n%s", name, d.out.text())
	}
}

// stop sends SIGTERM to the daemon's process group, escalates to SIGKILL
// after stopTimeout, and returns once the process has been reaped.
func (d *daemon) stop() {
	pgid := d.cmd.Process.Pid
	syscall.Kill(-pgid, syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(stopTimeout):
		syscall.Kill(-pgid, syscall.SIGKILL)
		<-d.done
	}
	live.mu.Lock()
	delete(live.daemons, d)
	live.mu.Unlock()
}

// stopAll stops every live daemon and refuses new ones when final is set.
func stopAll(final bool) {
	live.mu.Lock()
	live.closed = live.closed || final
	ds := make([]*daemon, 0, len(live.daemons))
	for d := range live.daemons {
		ds = append(ds, d)
	}
	live.mu.Unlock()
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.stop()
		}()
	}
	wg.Wait()
}

// stopDaemons stops ds in order, e.g. leaves before their root.
func stopDaemons(ds []*daemon) {
	for _, d := range ds {
		d.stop()
	}
}

// lineWatcher collects a daemon's output and signals ready once the
// startup lines naming its listen addresses have appeared.
type lineWatcher struct {
	wantTCP bool
	ready   chan struct{}

	mu       sync.Mutex
	buf      bytes.Buffer
	scanned  int
	httpAddr string
	tcpAddr  string
	signaled bool
}

var (
	httpLine = regexp.MustCompile(`on http://(\S+) \(dashboard`)
	tcpLine  = regexp.MustCompile(`raw-frame ingestion on tcp://(\S+)`)
)

func newLineWatcher(wantTCP bool) *lineWatcher {
	return &lineWatcher{wantTCP: wantTCP, ready: make(chan struct{})}
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for {
		rest := w.buf.Bytes()[w.scanned:]
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		line := rest[:i]
		w.scanned += i + 1
		if m := httpLine.FindSubmatch(line); m != nil {
			w.httpAddr = string(m[1])
		}
		if m := tcpLine.FindSubmatch(line); m != nil {
			w.tcpAddr = string(m[1])
		}
	}
	if !w.signaled && w.httpAddr != "" && (!w.wantTCP || w.tcpAddr != "") {
		w.signaled = true
		close(w.ready)
	}
	return len(p), nil
}

func (w *lineWatcher) addrs() (string, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.httpAddr, w.tcpAddr
}

func (w *lineWatcher) text() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the user+system CPU time the process has used so far,
// summed over its threads.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// f[0] is the state (field 3); utime and stime are fields 14 and 15.
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// selfCPUTime returns the benchmark process's own user+system CPU time.
func selfCPUTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
