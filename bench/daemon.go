package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildFarmerd compiles cmd/farmerd of the module this harness is built
// against into outDir and returns the binary's path and the build time. The
// harness never measures a farmerd it did not build from the checkout it
// runs in.
func buildFarmerd(outDir string) (string, time.Duration, error) {
	abs, err := filepath.Abs(outDir)
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(abs, "farmerd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "farmer/cmd/farmerd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build farmer/cmd/farmerd: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// daemon is one live farmerd process.
type daemon struct {
	cmd  *exec.Cmd
	argv []string
	addr string

	mu   sync.Mutex
	log  bytes.Buffer // everything the daemon wrote to stderr
	done chan struct{}
}

var servingRE = regexp.MustCompile(`serving on (\S+)`)

// startDaemon launches farmerd on an ephemeral loopback port and waits for
// its "serving on" line.
func startDaemon(bin string, args ...string) (*daemon, error) {
	argv := append([]string{"-addr", "127.0.0.1:0"}, args...)
	d := &daemon{cmd: exec.Command(bin, argv...), argv: argv, done: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line)
			d.log.WriteByte('\n')
			d.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-d.done:
		_ = d.cmd.Wait()
		return nil, fmt.Errorf("farmerd %v exited before serving:\n%s", argv, d.logText())
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		_ = d.cmd.Wait()
		return nil, fmt.Errorf("farmerd %v did not report its address:\n%s", argv, d.logText())
	}
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// returns only once the process has been reaped.
func (d *daemon) stop() error {
	if d.cmd.ProcessState != nil {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("farmerd %v: %w\n%s", d.argv, err, d.logText())
	}
	return nil
}

// procUsage is what /proc reports for one process: CPU consumed so far and
// the resident-set high-water mark.
type procUsage struct {
	cpu       time.Duration
	rssPeakKB int64
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime. It
// is 100 on every Linux port Go supports.
const clockTick = 100

func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// comm may contain spaces; the fixed fields follow the closing paren.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return u, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(string(stat[i+1:]))
	if len(fields) < 13 {
		return u, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, errors.New("unparsable /proc stat times")
	}
	u.cpu = time.Duration(utime+stime) * time.Second / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				u.rssPeakKB, _ = strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return u, nil
}

func (d *daemon) usage() (procUsage, error) { return readProcUsage(d.cmd.Process.Pid) }
