package main

// server.go builds cmd/icdbd and runs it as a child process: start and
// wait for the listening line, SIGKILL, and the /proc readings the
// end-to-end metrics need.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot is the checkout the benchmark measures: the parent of the
// benchmark's own module directory, where `go -C bench` leaves us.
func repoRoot() (string, error) {
	root, err := filepath.Abs("..")
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "icdbd")); err != nil {
		return "", fmt.Errorf("bench: %s does not hold cmd/icdbd (run from the bench directory of a checkout): %w", root, err)
	}
	return root, nil
}

// buildServer compiles cmd/icdbd into dir and returns the binary path.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "icdbd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/icdbd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building icdbd: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running icdbd child.
type server struct {
	cmd    *exec.Cmd
	addr   string
	start  time.Time     // just before exec
	listen time.Duration // exec → "listening" log line
	log    *lockedBuffer
	done   chan struct{} // closed when the child has been reaped
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) add(line string) {
	l.mu.Lock()
	l.b.WriteString(line)
	l.b.WriteByte('\n')
	l.mu.Unlock()
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// live is every child not yet reaped, so a failing run can kill them
// all on its way out.
var live = struct {
	mu sync.Mutex
	m  map[*server]bool
}{m: map[*server]bool{}}

func killAllServers() {
	live.mu.Lock()
	var all []*server
	for s := range live.m {
		all = append(all, s)
	}
	live.mu.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// startServer execs icdbd on a free loopback port and returns once it
// logs that it is listening.
func startServer(bin string, args ...string) (*server, error) {
	s := &server{log: &lockedBuffer{}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The child must not outlive the harness, even if the harness is
	// itself killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	live.mu.Lock()
	live.m[s] = true
	live.mu.Unlock()

	listening := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.log.add(line)
			if i := strings.Index(line, "icdbd listening on "); i >= 0 {
				select {
				case listening <- strings.TrimSpace(line[i+len("icdbd listening on "):]):
				default:
				}
			}
		}
		s.cmd.Wait()
		live.mu.Lock()
		delete(live.m, s)
		live.mu.Unlock()
		close(s.done)
	}()
	select {
	case s.addr = <-listening:
		s.listen = time.Since(s.start)
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("bench: icdbd exited before listening:\n%s", s.log)
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("bench: icdbd did not listen within 60s:\n%s", s.log)
	}
}

// kill sends SIGKILL and waits until the child is reaped.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// cpu returns the child's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime and stime (fields 14 and 15) are at offsets 11 and 12.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: bad /proc stat line %q", data)
	}
	const userHz = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return time.Duration(ut+st) * time.Second / userHz, nil
}

// rssPeakMB returns the child's peak resident set (VmHWM) in MB.
func (s *server) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc status")
}
