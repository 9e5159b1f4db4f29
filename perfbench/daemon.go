package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// f0dProcs is the GOMAXPROCS f0d runs with. With more than one P, Go's
// scheduler spins idle threads looking for work whenever a goroutine
// wakes, and how long they spin depends on what else the host runs; that
// CPU time would land in every op's cost and in set-up. With one P, f0d's
// CPU clock counts the work of its requests, its garbage collector and its
// restore, and little else.
const f0dProcs = 1

// daemon is one f0d process started by the benchmark.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	exitc chan error
	log   *os.File
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// bootDaemon starts f0d over dataDir and returns once it is ready, that
// is once /healthz answers and one authenticated request (listing tenant
// t0's restored sketches) succeeds. It returns the wall-clock time from
// spawning the process until then, and the CPU time f0d used in it.
func bootDaemon(bin, dataDir, authFile, logPath string) (d *daemon, wall, cpu time.Duration, err error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, 0, err
	}
	d = &daemon{base: "http://127.0.0.1:" + strconv.Itoa(port), exitc: make(chan error, 1), log: logf}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port), "-auth", authFile, "-data", dataDir)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(f0dProcs))
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	probe := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, 0, err
	}
	go func() { d.exitc <- d.cmd.Wait() }()
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-d.exitc:
			d.exitc <- err
			d.stop()
			return nil, 0, 0, fmt.Errorf("f0d exited during start-up (%v); log: %s", err, d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, 0, fmt.Errorf("f0d not healthy after 60s; log: %s", d.logTail())
		}
		time.Sleep(200 * time.Microsecond)
	}
	req, _ := http.NewRequest("GET", d.base+"/v1/sketches", nil)
	req.Header.Set("Authorization", "Bearer "+tenantToken(0))
	resp, err := probe.Do(req)
	if err != nil {
		d.stop()
		return nil, 0, 0, fmt.Errorf("first authenticated request: %w", err)
	}
	var list struct {
		Sketches []json.RawMessage `json:"sketches"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	wall, cpu = time.Since(start), cpuTime(d.cmd.Process.Pid)
	if err != nil || resp.StatusCode != http.StatusOK || len(list.Sketches) != sketchesPerTenant || cpu == 0 {
		d.stop()
		return nil, 0, 0, fmt.Errorf("first authenticated request: status %d, %d sketches listed, err %v; f0d cpu clock %v",
			resp.StatusCode, len(list.Sketches), err, cpu)
	}
	return d, wall, cpu, nil
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.log.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// stop sends SIGTERM (f0d then snapshots dirty sketches and exits),
// falls back to SIGKILL after 30s, and waits for the process to end.
func (d *daemon) stop() {
	defer d.log.Close()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exitc:
		return
	case <-time.After(30 * time.Second):
	}
	d.cmd.Process.Kill()
	<-d.exitc
}

// statusMB reads one memory field of /proc/<pid>/status, such as "VmRSS"
// or "VmHWM" (peak resident set), in MiB.
func statusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// cpuTime returns the CPU time all of the process's threads have used,
// read from the kernel's per-process CPU clock (clock_gettime on the
// process's clock id, nanosecond resolution). The scheduler's clock leaves
// out steal, the time the host gave to other guests, so differences of
// cpuTime measure the process's own work however busy the host is. It
// returns 0 if the clock cannot be read.
func cpuTime(pid int) time.Duration {
	var ts syscall.Timespec
	id := (^pid)<<3 | 2 // CPUCLOCK_SCHED of the whole thread group
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTicks returns the machine's steal and total CPU ticks from the first
// line of /proc/stat; steal is time a vCPU was runnable but the host ran
// something else, the main source of noise on a shared machine.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
