package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is a running transnserve.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	log     *stderrLog
	done    chan struct{} // closed once the process has been waited for
	err     error         // Wait's result, valid after done
	once    sync.Once
	stopErr error
}

// launch starts transnserve on the prepared snapshot and returns once
// /readyz answers 200, with the time from exec to that answer.
func launch(bin string, ps *preparedSnapshot) (*serverProc, time.Duration, error) {
	log := &stderrLog{addr: make(chan string, 1)}
	cmd := exec.Command(bin,
		"-graph", ps.graphPath,
		"-model", ps.snapPath,
		"-snapshot-format", "snap",
		"-addr", "127.0.0.1:0")
	cmd.Stderr = log
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	select {
	case addr := <-log.addr:
		s.base = "http://" + addr
	case <-s.done:
		return nil, 0, fmt.Errorf("transnserve exited before serving: %v\n%s", s.err, log.tail())
	case <-time.After(2 * time.Minute):
		s.stop()
		return nil, 0, fmt.Errorf("transnserve did not start within 2m\n%s", log.tail())
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for tries := 0; ; tries++ {
		_, status, err := get(client, s.base+"/readyz")
		if err == nil && status == http.StatusOK {
			break
		}
		if tries == 1000 {
			s.stop()
			return nil, 0, fmt.Errorf("transnserve never became ready: status %d: %v", status, err)
		}
		time.Sleep(time.Millisecond)
	}
	client.CloseIdleConnections()
	return s, time.Since(start), nil
}

// stop sends SIGTERM, waits for the graceful drain (killing the server
// if it takes too long) and reports an unclean exit. Safe to call more
// than once.
func (s *serverProc) stop() error {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-s.done:
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
			s.stopErr = errors.New("transnserve did not drain within 30s and was killed")
			return
		}
		if s.err != nil {
			s.stopErr = fmt.Errorf("transnserve exited uncleanly: %v\n%s", s.err, s.log.tail())
		}
	})
	return s.stopErr
}

// killedBy reports whether the stopped server died of signal sig.
func (s *serverProc) killedBy(sig syscall.Signal) bool {
	var ee *exec.ExitError
	if !errors.As(s.err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == sig
}

// stderrLog receives transnserve's standard error: it reports the bound
// address from the start-up line and keeps the last lines for errors.
type stderrLog struct {
	mu    sync.Mutex
	buf   []byte
	lines []string
	addr  chan string
	sent  bool
}

const startLine = "transnserve: serving generation 1 on "

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		line := string(l.buf[:i])
		l.buf = l.buf[i+1:]
		if !l.sent && strings.HasPrefix(line, startLine) {
			l.addr <- strings.TrimPrefix(line, startLine)
			l.sent = true
		}
		if l.lines = append(l.lines, line); len(l.lines) > 20 {
			l.lines = l.lines[1:]
		}
	}
	return len(p), nil
}

func (l *stderrLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}
