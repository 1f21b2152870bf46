package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
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

	"repro/pkg/api"
)

// procs tracks every server this run started, so that every exit path —
// return, error, panic, signal — can kill what is still alive.
var procs struct {
	mu   sync.Mutex
	live map[*serverProc]struct{}
}

func killAllServers() {
	procs.mu.Lock()
	live := make([]*serverProc, 0, len(procs.live))
	for p := range procs.live {
		live = append(live, p)
	}
	procs.mu.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// buildServer compiles the repository's unmodified cmd/summaryd.
func buildServer(repo, out string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "./cmd/summaryd")
	cmd.Dir = repo
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("building cmd/summaryd: %w\n%s", err, stderr.String())
	}
	return time.Since(start), nil
}

// serverProc is one running summaryd.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	started time.Time
	stderr  bytes.Buffer
	done    chan struct{}
	hc      *http.Client
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs summaryd on a free loopback port over dataDir with
// otherwise default flags (-shards 1, no -fsync, -snapshot-every 4096)
// and -log-level warn; traced selects -trace=true -trace-ring 4096
// instead of -trace=false. It returns once the process is started, not
// once it is healthy: waitHealthy measures that.
func startServer(bin, dataDir string, traced bool) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-data-dir", dataDir, "-log-level", "warn"}
	if traced {
		args = append(args, "-trace=true", "-trace-ring", "4096")
	} else {
		args = append(args, "-trace=false")
	}
	p := &serverProc{
		cmd:  exec.Command(bin, args...),
		base: "http://" + addr,
		done: make(chan struct{}),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second},
	}
	p.cmd.Stderr = &p.stderr
	// The child dies with this process even if it is killed outright.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting summaryd: %w", err)
	}
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = make(map[*serverProc]struct{})
	}
	procs.live[p] = struct{}{}
	procs.mu.Unlock()
	go func() {
		_ = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitHealthy polls /healthz until it answers ok and returns the answer
// and the time since exec. summaryd listens only after the store has
// replayed, so the first answer is also the end of recovery.
func (p *serverProc) waitHealthy(timeout time.Duration) (api.HealthResult, time.Duration, error) {
	deadline := p.started.Add(timeout)
	for {
		select {
		case <-p.done:
			return api.HealthResult{}, 0, fmt.Errorf("summaryd exited before becoming healthy: %s", p.stderr.String())
		default:
		}
		hr, err := p.health()
		if err == nil && hr.Status == "ok" {
			return hr, time.Since(p.started), nil
		}
		if time.Now().After(deadline) {
			return api.HealthResult{}, 0, fmt.Errorf("summaryd not healthy after %v: %v", timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// health is one GET /healthz.
func (p *serverProc) health() (api.HealthResult, error) {
	var hr api.HealthResult
	resp, err := p.hc.Get(p.base + "/healthz")
	if err != nil {
		return hr, err
	}
	defer resp.Body.Close()
	return hr, json.NewDecoder(resp.Body).Decode(&hr)
}

// kill sends SIGKILL and waits for the process to be gone.
func (p *serverProc) kill() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.done
	p.hc.CloseIdleConnections()
	procs.mu.Lock()
	delete(procs.live, p)
	procs.mu.Unlock()
}

// statusMB reads one of the kB lines of /proc/<pid>/status — VmRSS, the
// resident set size now, or VmHWM, its high-water mark — in MB.
func (p *serverProc) statusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no " + field + " in /proc status")
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 for
// /proc/<pid>/stat on every supported architecture.
const clockTicksPerSecond = 100

// cpuSeconds is user+system CPU time consumed so far.
func (p *serverProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12th and 13th after the ')'.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("unparsable /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return (ut + st) / clockTicksPerSecond, nil
}

// scrape fetches GET /metrics, returning the series (one per sample
// line, keyed by the text before the value) and how long the scrape took.
func (p *serverProc) scrape() (map[string]float64, time.Duration, error) {
	start := time.Now()
	resp, err := p.hc.Get(p.base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	return parseMetrics(data), took, nil
}

// parseMetrics reads the Prometheus text exposition: "name{labels} value".
func parseMetrics(data []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// fetchV2 fetches one stored summary in the binary v2 wire form.
func fetchV2(ctx context.Context, hc *http.Client, base, dataset string, instance int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/summaries?dataset=%s&instance=%d", base, dataset, instance), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/x-summary-v2")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch %s/%d: HTTP %d: %s", dataset, instance, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files and directories under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
