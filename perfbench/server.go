package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverFlags pins the untraced server's settings so results do not
// depend on the machine's core count: default flags plus a data
// directory, fsync on, the default snapshot cadence, and 4 shards.
// The traced host applies the same settings to the same constructors.
func serverFlags(addr, dataDir string) []string {
	return []string{"-addr", addr, "-data-dir", dataDir, "-fsync=true", "-snapshot-every", "256", "-shards", "4"}
}

// proc is one child server process.
type proc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

var (
	procsMu sync.Mutex
	procs   = map[*proc]bool{}
)

// killAll stops every child still running and waits for it; called on
// every exit path of the benchmark.
func killAll() {
	procsMu.Lock()
	ps := make([]*proc, 0, len(procs))
	for p := range procs {
		ps = append(ps, p)
	}
	procsMu.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startProc execs bin with args and waits for its first healthy
// /healthz. The returned duration runs from exec to that response.
func startProc(bin string, args []string, addr, logPath string) (*proc, time.Duration, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	procsMu.Lock()
	procs[p] = true
	procsMu.Unlock()
	go func() { _ = cmd.Wait(); close(p.done) }()
	deadline := t0.Add(90 * time.Second)
	for {
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0), nil
			}
		}
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("%s exited during start-up (see %s)", filepath.Base(bin), logPath)
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, 0, fmt.Errorf("%s not healthy after 90s (see %s)", filepath.Base(bin), logPath)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// kill sends SIGKILL and waits for the process to end.
func (p *proc) kill() { p.signalWait(syscall.SIGKILL) }

// stop asks for a graceful shutdown (journal flushed) and waits.
func (p *proc) stop() { p.signalWait(syscall.SIGTERM) }

func (p *proc) signalWait(sig syscall.Signal) {
	_ = p.cmd.Process.Signal(sig)
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	procsMu.Lock()
	delete(procs, p)
	procsMu.Unlock()
}

// procCPU returns the user+sys CPU time of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// procMem returns a size field of /proc/<pid>/status, such as VmRSS
// (resident set size) or VmHWM (its peak), in bytes.
func procMem(pid int, field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runContext records what the numbers depend on, so results from
// different machines or settings are not compared by mistake.
type runContext struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	DataDirFS  string         `json:"data_dir_fs"`
	Commit     string         `json:"commit"`
	SourceHash string         `json:"source_sha256"`
	Server     []string       `json:"server_flags"`
	Rate       float64        `json:"offered_rate_ops_s"`
	Samples    map[string]int `json:"samples"`
	// HostSteal is the share of CPU time the hypervisor took from this
	// machine during the fixed-rate phase: on a shared host it moves
	// every latency, so compare runs only at similar steal.
	HostSteal float64 `json:"host_steal_share"`
}

func newRunContext(w workload, seed int64, seconds int, trace bool, root, dataDir string) runContext {
	return runContext{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), DataDirFS: fsType(dataDir), Commit: commitOf(root), SourceHash: sourceHash(root),
		Server: serverFlags("<addr>", "<data-dir>"), Rate: w.rate, Samples: map[string]int{},
	}
}

// cpuTicks returns the steal and total tick counts of /proc/stat.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i == 7 {
			steal = v
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
	}
	return steal, total
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from statfs magic numbers.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commitOf reads the checked-out commit when the tree is a git
// checkout; exported trees have none, and the source hash identifies
// them instead. Git must not find a repository above the tree.
func commitOf(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes every Go source and module file of the program.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
