package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"omini/internal/cluster"
	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/ruledist"
	"omini/internal/serve"
)

// node stands for one ominiserve process: a serve.Server behind a
// loopback TCP listener and, in a cluster, the coordinator and rule
// replicator cmd/ominiserve -cluster puts beside it. The three share
// one registry, as they share the process registry in ominiserve. All
// nodes of a system run in the benchmark's one serving process.
type node struct {
	id    string
	url   string
	stats *resilience.Stats
	srv   *serve.Server
	repl  *ruledist.Replicator
	http  *http.Server
}

// system is the serving stack under test.
type system struct {
	nodes  []*node
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// boot starts n nodes with the library defaults ominiserve runs with;
// only the log goes to io.Discard (it is still formatted). With n > 1
// every node is a symmetric cluster member: it holds /readyz until its
// join-time rule pull from the other nodes finishes, as ominiserve does
// with -sync-on-join. tr, when non-nil, wraps the handlers in spans.
func boot(n int, tr *tracer) (*system, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &system{cancel: cancel}
	logger := obs.NewLogger(io.Discard, obs.LevelInfo)
	peers := make(map[string]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			cancel()
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		peers[nodeID(i)] = "http://" + ln.Addr().String()
	}
	for i, ln := range lns {
		nd := &node{id: nodeID(i), url: peers[nodeID(i)], stats: resilience.NewStats()}
		nd.srv = serve.New(serve.Config{Stats: nd.stats, Logger: logger, DeferReady: n > 1})
		handler := tr.wrap(layerServe, nd.id, nd.srv)
		if n > 1 {
			repl, err := ruledist.New(ruledist.Config{
				Self: nd.id, Peers: peers, Farm: nd.srv.Farm(), Stats: nd.stats, Logger: logger,
			})
			if err != nil {
				for _, l := range lns[i:] {
					l.Close()
				}
				s.close()
				return nil, fmt.Errorf("node %s: %w", nd.id, err)
			}
			nd.repl = repl
			coord := cluster.New(cluster.Config{
				Self: nd.id, Peers: peers, Local: handler, Stats: nd.stats, Logger: logger,
				Traces:        nd.srv.Traces(),
				OnReadmission: func(string) { repl.Kick() },
			})
			s.spawn(func() { _ = repl.Run(ctx) })
			s.spawn(func() { _ = coord.Run(ctx) })
			handler = tr.wrap(layerFront, nd.id, coord)
		}
		s.spawn(func() { _ = nd.srv.Run(ctx) })
		nd.http = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
		s.spawn(func() { _ = nd.http.Serve(ln) })
		s.nodes = append(s.nodes, nd)
	}
	if n > 1 {
		var wg sync.WaitGroup
		for _, nd := range s.nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Advisory, as in ominiserve: an incomplete join sync
				// degrades to learn-on-miss, and the check catches any
				// wrong answer that follows.
				_ = nd.repl.SyncOnJoin(ctx)
				nd.srv.MarkReady()
			}()
		}
		wg.Wait()
	}
	return s, nil
}

func nodeID(i int) string { return string(rune('a' + i)) }

func (s *system) spawn(fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn()
	}()
}

// fronts are the URLs clients send requests to.
func (s *system) fronts() []string {
	urls := make([]string, len(s.nodes))
	for i, nd := range s.nodes {
		urls[i] = nd.url
	}
	return urls
}

// antiEntropy runs one ruledist round on every node in turn, as the
// background loop would after its interval, and returns each round's
// duration. Afterwards every node holds every learned rule.
func (s *system) antiEntropy(ctx context.Context) ([]time.Duration, error) {
	var took []time.Duration
	for _, nd := range s.nodes {
		if nd.repl == nil {
			continue
		}
		start := time.Now()
		if err := nd.repl.SyncAll(ctx); err != nil {
			return nil, fmt.Errorf("node %s rule sync: %w", nd.id, err)
		}
		took = append(took, time.Since(start))
	}
	return took, nil
}

// close stops the listeners and background loops and waits for every
// goroutine boot started.
func (s *system) close() error {
	s.cancel()
	var errs []error
	for _, nd := range s.nodes {
		errs = append(errs, nd.http.Close(), nd.srv.Close())
	}
	s.wg.Wait()
	return errors.Join(errs...)
}
