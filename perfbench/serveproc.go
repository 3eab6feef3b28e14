package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"omini/internal/ruledist"
)

// The serving stack runs in a process of its own, the perfbench binary
// started again with -serve-nodes, so the CPU time, allocations and heap
// the benchmark reports are the server's alone: the clients' round
// trips, response decoding and checks run in the benchmark's process.

// hello is the serving process's first and only line on stdout.
type hello struct {
	Fronts  []string `json:"fronts"`  // the nodes' URLs, for requests
	Control string   `json:"control"` // the control endpoint's URL
}

// procStats is what the serving process reports about itself at one
// instant: its CPU time, Go runtime counters and the nodes' registries.
type procStats struct {
	CPUNS       int64   `json:"cpuNs"`
	Mallocs     uint64  `json:"mallocs"`
	TotalAlloc  uint64  `json:"totalAlloc"`
	NumGC       uint32  `json:"numGC"`
	HeapInuse   uint64  `json:"heapInuse"`
	Goroutines  int     `json:"goroutines"`
	Registry    regSnap `json:"registry"`
	RulesPulled int64   `json:"rulesPulled"`
}

// serveMain is the serving process: it boots n nodes, prints their URLs
// and a control URL as one JSON line, answers the control endpoints,
// and stops the nodes and returns when its standard input closes, which
// it does when the benchmark stops it or exits.
func serveMain(n int, traced bool) error {
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	sys, err := boot(n, tr)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.close()
		return fmt.Errorf("listen: %w", err)
	}
	ctl := &http.Server{Handler: control(sys, tr), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- ctl.Serve(ln) }()
	msg := hello{Fronts: sys.fronts(), Control: "http://" + ln.Addr().String()}
	if err = json.NewEncoder(os.Stdout).Encode(msg); err == nil {
		_, _ = io.Copy(io.Discard, os.Stdin)
	}
	ctl.Close()
	<-served
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	return err
}

// control serves the benchmark's requests to the serving process.
func control(sys *system, tr *tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /antientropy", func(w http.ResponseWriter, r *http.Request) {
		took, err := sys.antiEntropy(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		ms := make([]float64, len(took))
		for i, t := range took {
			ms[i] = float64(t.Nanoseconds()) / 1e6
		}
		writeJSON(w, ms)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, sys.stats())
	})
	mux.HandleFunc("POST /trace", func(w http.ResponseWriter, r *http.Request) {
		if tr != nil {
			tr.on.Store(r.URL.Query().Get("on") == "1")
		}
	})
	mux.HandleFunc("GET /spans", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, tr.taken())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *system) stats() procStats {
	st := procStats{CPUNS: cpuTime().Nanoseconds()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.Mallocs, st.TotalAlloc, st.NumGC, st.HeapInuse = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.HeapInuse
	st.Goroutines = runtime.NumGoroutine()
	st.Registry = s.snapshot()
	for _, nd := range s.nodes {
		st.RulesPulled += nd.stats.Get(ruledist.SeriesRulesPulled)
	}
	return st
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	// stopGrace is how long a serving process may take to stop before
	// it is killed.
	stopGrace = 10 * time.Second
	// maxControlBytes bounds a control response; a traced run's spans
	// are a few MiB.
	maxControlBytes = 256 << 20
)

// server is the benchmark's handle on a running serving process.
type server struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	fronts  []string
	control string
	client  *http.Client
}

// startServer starts a serving process with n nodes and waits, at most
// setupAllowance, for its hello line.
func startServer(ctx context.Context, n int, traced bool) (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, outW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer out.Close()
	cmd := exec.Command(exe, "-serve-nodes", strconv.Itoa(n), "-serve-traced="+strconv.FormatBool(traced))
	cmd.Stdout, cmd.Stderr = outW, os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		outW.Close()
		return nil, err
	}
	err = cmd.Start()
	outW.Close()
	if err != nil {
		return nil, fmt.Errorf("start serving process: %w", err)
	}
	s := &server{cmd: cmd, stdin: stdin, client: &http.Client{}}

	type answer struct {
		h   hello
		err error
	}
	got := make(chan answer, 1)
	go func() {
		var a answer
		a.err = json.NewDecoder(out).Decode(&a.h)
		got <- a
	}()
	timer := time.NewTimer(setupAllowance)
	defer timer.Stop()
	select {
	case a := <-got:
		if a.err != nil {
			s.stop()
			return nil, fmt.Errorf("serving process did not start: %w", a.err)
		}
		s.fronts, s.control = a.h.Fronts, a.h.Control
		return s, nil
	case <-timer.C:
		err = fmt.Errorf("serving process did not start within %v", setupAllowance)
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.stop()
	<-got
	return nil, err
}

// stop closes the serving process's standard input, which stops it,
// and waits for it to exit; past stopGrace it is killed.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	s.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	timer := time.NewTimer(stopGrace)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("serving process did not stop within %v and was killed", stopGrace)
	}
}

// call sends one control request and decodes the JSON answer into out,
// unless out is nil.
func (s *server) call(ctx context.Context, method, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.control+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxControlBytes))
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, body)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

func (s *server) stats(ctx context.Context) (procStats, error) {
	var st procStats
	err := s.call(ctx, http.MethodGet, "/stats", &st)
	return st, err
}
