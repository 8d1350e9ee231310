package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// envInfo records where and on what a result was measured, so results
// are compared only with like runs (same host, same GOMAXPROCS).
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	SourceSHA  string  `json:"source_sha256"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Rate       float64 `json:"open_loop_rate"`
	Fabric     string  `json:"fabric,omitempty"`
}

// hostEnv collects the host facts and identifies the program under
// test: the git commit when root is a git checkout, and always a
// digest of the module's Go sources outside this benchmark.
func hostEnv(root string) envInfo {
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(root),
		SourceSHA:  sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from root/.git without running git; empty when
// root is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// sourceDigest hashes go.mod and every .go file of the module at root,
// skipping this benchmark, build output and hidden directories.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "streambench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || (name == "go.mod" && filepath.Dir(path) == root) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readMetric reads one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

const (
	metricAllocs   = "/gc/heap/allocs:objects"
	metricLiveHeap = "/gc/heap/live:bytes"
)

// heapWatch samples the live heap (as marked by the latest GC) every
// few milliseconds and keeps the peak since the last take.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func watchHeap(every time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			v := readMetric(metricLiveHeap)
			for cur := h.peak.Load(); v > cur && !h.peak.CompareAndSwap(cur, v); cur = h.peak.Load() {
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak live heap in bytes since the previous take and
// starts a new span at the current live heap.
func (h *heapWatch) take() uint64 {
	return h.peak.Swap(readMetric(metricLiveHeap))
}

// close stops the sampler.
func (h *heapWatch) close() {
	close(h.stop)
	<-h.done
}
