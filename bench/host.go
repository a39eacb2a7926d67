package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// host is the provenance every result file records, so a number is never
// read without the machine and the code that produced it.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func hostInfo() host {
	h := host{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Revision:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// processCPU is the CPU time (user + system) the whole process has used.
func processCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration { return rusageCPU(syscall.RUSAGE_THREAD) }

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set so far, in MiB: VmHWM from
// /proc/self/status. getrusage's ru_maxrss will not do, because Linux
// carries it across execve: a small benchmark started from a large
// parent reports the parent's peak.
func maxRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// ledger counts a run's attempted operations and its failures: operations
// that returned an error or timed out, and output checks that did not
// match. The watchdog reads it to report a wedged run.
type ledger struct {
	attempted, finished, failed atomic.Int64

	mu   sync.Mutex
	errs []string
}

// maxErrs bounds the failure messages a result keeps.
const maxErrs = 20

// begin counts n operations as attempted.
func (l *ledger) begin(n int) { l.attempted.Add(int64(n)) }

// end records one attempted operation's outcome.
func (l *ledger) end(err error) {
	l.finished.Add(1)
	if err != nil {
		l.fail(1, err.Error())
	}
}

// mismatch records an output that failed its check.
func (l *ledger) mismatch(format string, args ...any) {
	l.fail(1, fmt.Sprintf(format, args...))
}

func (l *ledger) fail(n int64, msg string) {
	l.failed.Add(n)
	l.mu.Lock()
	if len(l.errs) < maxErrs {
		l.errs = append(l.errs, msg)
	}
	l.mu.Unlock()
}

func (l *ledger) errors() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.errs...)
}

// watch ends a wedged run. If no operation finishes for limit, it writes
// a goroutine dump (debug=2) to dumpPath, counts every unfinished attempt
// as failed, calls wedged (which prints the result) and exits 1. The
// returned stop disarms it and returns once its goroutine has exited.
func watch(l *ledger, limit time.Duration, dumpPath string, wedged func()) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(limit / 20)
		defer tick.Stop()
		last, since := l.finished.Load(), time.Now()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				if n := l.finished.Load(); n != last {
					last, since = n, now
					continue
				}
				if now.Sub(since) < limit {
					continue
				}
				if err := writeGoroutines(dumpPath); err != nil {
					fmt.Fprintln(os.Stderr, "bench: goroutine dump:", err)
				}
				unfinished := l.attempted.Load() - l.finished.Load()
				l.fail(unfinished, fmt.Sprintf("wedged: no operation finished for %v; %d unfinished attempts; goroutines in %s",
					limit, unfinished, dumpPath))
				wedged()
				os.Exit(1)
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

func writeGoroutines(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
