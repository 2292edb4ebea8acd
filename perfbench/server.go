package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one pfdserved process under test.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped

	mu  sync.Mutex
	log []string // last log lines, for error reports
}

// bootTimeout bounds how long a boot may take before the run fails.
const bootTimeout = 30 * time.Second

// startDaemon launches pfdserved on a loopback port chosen by the
// kernel and returns once it logs its address. The child dies with
// the benchmark (Pdeathsig), so an aborted run leaves nothing behind.
func startDaemon(bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go d.readLog(stderr, addrc)
	go func() {
		cmd.Wait() //nolint:errcheck // killed on purpose; the exit status carries nothing
		close(d.done)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("pfdserved exited during boot: %s", d.tail())
	case <-time.After(bootTimeout):
		d.kill()
		return nil, fmt.Errorf("pfdserved did not report its address within %v: %s", bootTimeout, d.tail())
	}
}

// readLog drains the daemon's log, handing the "listening on" address
// to addrc and keeping the last lines for error reports.
func (d *daemon) readLog(r io.Reader, addrc chan<- string) {
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if _, addr, ok := strings.Cut(line, "listening on "); ok && !sent {
			addrc <- strings.TrimSpace(addr)
			sent = true
		}
		d.mu.Lock()
		d.log = append(d.log, line)
		if len(d.log) > 20 {
			d.log = d.log[len(d.log)-20:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

func (d *daemon) base() string { return "http://" + d.addr }

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill sends SIGKILL (a crash, as far as the daemon knows) and waits
// until the process is gone.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-d.done
}

// alive reports whether the process is still running.
func (d *daemon) alive() error {
	select {
	case <-d.done:
		return errors.New("pfdserved exited: " + d.tail())
	default:
		return nil
	}
}
