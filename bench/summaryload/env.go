package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"
)

// envRecord is where and on what a run was measured, so that two result
// sets can be told apart by more than their numbers.
type envRecord struct {
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func readEnv(repo string, seed uint64) envRecord {
	env := envRecord{
		Commit: "unknown", Seed: seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(),
	}
	// The driver's checkout is not a git repository; a developer's is.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = repo
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

// The spin probe parses spinLine spinWork times on each of two
// goroutines, spinRounds times over: about a fifth of a second in all when
// both cores are free.
const (
	spinWork   = 50_000
	spinRounds = 3
)

var spinLine = []byte(`{"key":123456789012,"value":4.56}`)

// spinProbe times a fixed loop on two goroutines at once — the slower
// goroutine's milliseconds — and returns the fastest of spinRounds such
// rounds. The loop does what the server does most — decode a small JSON
// object, allocating as it goes — because that is the kind of work whose
// speed was seen to change on the sandbox while a pure integer loop's did
// not. Run before and after a workload it shows whether the machine
// itself changed speed in between: the sandbox has contention episodes
// that no benchmark design can remove, only reveal.
func spinProbe() float64 {
	best := math.Inf(1)
	for round := 0; round < spinRounds; round++ {
		var wg sync.WaitGroup
		var took [2]time.Duration
		for g := range took {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				for i := 0; i < spinWork; i++ {
					var rec struct {
						Key   *uint64  `json:"key"`
						Value *float64 `json:"value"`
					}
					if err := json.Unmarshal(spinLine, &rec); err != nil {
						panic(err)
					}
				}
				took[g] = time.Since(start)
			}()
		}
		wg.Wait()
		best = min(best, float64(max(took[0], took[1]).Nanoseconds())/1e6)
	}
	return best
}

// spinNoisy says whether two probes differ by more than a tenth.
func spinNoisy(before, after float64) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo <= 0 || (hi-lo)/lo > 0.10
}
