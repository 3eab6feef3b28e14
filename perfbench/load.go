package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// load drives one system with closed-loop clients: each client sends
// its next request only after the previous response arrived and was
// checked, the way an aggregator calling the service waits for each
// page's objects.
type load struct {
	seed      int64
	tailEvery int // every tailEvery-th request names an unseen site; 0: none
	in        *inputs
	fronts    []string
	client    *http.Client
	tr        *tracer

	streams []*stream

	reqSeq    atomic.Int64
	tailSeq   atomic.Int64
	attempted atomic.Int64
	failed    atomic.Int64
	reported  atomic.Int64
}

// stream is one client's request sequence. Each pool is walked in a
// seeded random order, so every page is sent about equally often and no
// seed draws a heavier mix of pages than another.
type stream struct {
	hot, tail []int
	sent      int
	nhot      int
	ntail     int
}

func newLoad(seed int64, tailEvery int, in *inputs, tr *tracer) *load {
	l := &load{
		seed:      seed,
		tailEvery: tailEvery,
		in:        in,
		tr:        tr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			DisableCompression:  true,
		}},
	}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		l.streams = append(l.streams, &stream{hot: rng.Perm(len(in.hot)), tail: rng.Perm(len(in.tail))})
	}
	return l
}

// next draws the stream's next request: a hot page under its own site,
// or, as every tailEvery-th request, a long-tail page under a site name
// no earlier request used.
func (l *load) next(s *stream) (string, *page) {
	if l.tailEvery == 0 || (s.nhot+s.ntail+1)%l.tailEvery != 0 {
		p := l.in.hot[s.hot[s.nhot%len(s.hot)]]
		s.nhot++
		return p.site, p
	}
	p := l.in.tail[s.tail[s.ntail%len(s.tail)]]
	s.ntail++
	return fmt.Sprintf("n%d-%d.tail.example", l.seed, l.tailSeq.Add(1)), p
}

// send POSTs one page to /extract at front and checks the response. A
// transport error, a non-200 status and a wrong extraction all count as
// failed.
func (l *load) send(ctx context.Context, front, site string, p *page) (time.Duration, bool) {
	l.attempted.Add(1)
	lat, err := l.roundTrip(ctx, front, site, p)
	if err != nil {
		l.failed.Add(1)
		if l.reported.Add(1) <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: site %s: %v\n", site, err)
		}
		return 0, false
	}
	return lat, true
}

// maxResponseBytes bounds a response read; /extract answers are a few
// KiB, and a truncated one fails its check.
const maxResponseBytes = 8 << 20

func (l *load) roundTrip(ctx context.Context, front, site string, p *page) (time.Duration, error) {
	id := l.reqSeq.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		front+"/extract?site="+url.QueryEscape(site), strings.NewReader(p.html))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "text/html")
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	resp.Body.Close()
	lat := time.Since(start)
	l.tr.record(span{Req: id, Layer: layerClient, DurNS: lat.Nanoseconds()}, start)
	if err != nil {
		return 0, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	return lat, p.check(body)
}

// extractResponse is the part of the /extract payload the check reads.
type extractResponse struct {
	SubtreePath string `json:"subtreePath"`
	Separator   string `json:"separator"`
	FromRule    bool   `json:"fromRule"`
	Objects     []struct {
		Text string `json:"text"`
	} `json:"objects"`
}

// check compares a response with the page's reference: a rule replay
// must match the warm rule's replay, a discovery must match full
// discovery.
func (p *page) check(body []byte) error {
	var r extractResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	want := p.slow
	if r.FromRule {
		if p.site == "" {
			return fmt.Errorf("unseen site served from a cached rule")
		}
		want = p.fast
	}
	texts := make([]string, len(r.Objects))
	for i, o := range r.Objects {
		texts[i] = o.Text
	}
	got := expect{subtree: r.SubtreePath, separator: r.Separator, objects: len(texts), texts: fingerprint(texts)}
	if got != want {
		return fmt.Errorf("fromRule=%v: got %s/%s with %d objects, want %s/%s with %d objects (texts equal: %v)",
			r.FromRule, got.subtree, got.separator, got.objects,
			want.subtree, want.separator, want.objects, got.texts == want.texts)
	}
	return nil
}

// phase runs the first n clients closed-loop for d and returns the
// successful requests' latencies in ms. Client c sends its k-th request
// to front (c+k) mod len(fronts), so every front door sees every client.
func (l *load) phase(ctx context.Context, n int, d time.Duration) []float64 {
	deadline := time.Now().Add(d)
	per := make([][]float64, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := l.streams[c]
			for time.Now().Before(deadline) {
				site, p := l.next(s)
				front := l.fronts[(c+s.sent)%len(l.fronts)]
				s.sent++
				if lat, ok := l.send(ctx, front, site, p); ok {
					per[c] = append(per[c], float64(lat.Nanoseconds())/1e6)
				}
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// quantile returns the q-quantile of xs, interpolating between order
// statistics; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
