// Package fetch implements Phase 1's page acquisition: fetching pages over
// HTTP, caching them on disk, and serving the synthetic corpus from a local
// HTTP server — the stand-in for the paper's practice of downloading 2,000+
// pages and running every experiment against the local copies ("so as not
// to overload web sites and to be able to obtain consistent results").
//
// The live web the paper's aggregation services crawl is hostile: hosts
// stall, responses truncate, servers return transient 5xxs. The Fetcher
// therefore layers internal/resilience over plain HTTP — transient
// failures are retried with backoff, persistently failing hosts are
// short-circuited by a per-host breaker, and cache writes are atomic so a
// crash never leaves a truncated page behind.
package fetch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	neturl "net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"omini/internal/obs"
	"omini/internal/resilience"
)

// Fetcher retrieves pages over HTTP with an optional on-disk cache and
// optional fault tolerance. The zero value fetches once with no cache —
// exactly the seed behavior.
type Fetcher struct {
	// Client is the HTTP client; http.DefaultClient when nil.
	Client *http.Client
	// CacheDir enables the page cache when non-empty: every fetched URL is
	// stored under CacheDir and served from disk on repeat fetches.
	CacheDir string
	// MaxBytes caps the page size read (default 8 MiB).
	MaxBytes int64
	// Retry, when non-nil, retries transient failures (timeouts,
	// connection resets, truncated bodies, 5xx and 429 responses) with
	// exponential backoff. Nil fetches exactly once.
	Retry *resilience.RetryPolicy
	// Breakers, when non-nil, short-circuits hosts that keep failing: a
	// host whose breaker is open fails fast with resilience.ErrOpen
	// instead of burning attempts on a dead upstream.
	Breakers *resilience.BreakerGroup
}

// defaultMaxBytes bounds page reads; result pages of the era are far
// smaller.
const defaultMaxBytes = 8 << 20

// ErrBodyTooLarge marks a response body exceeding MaxBytes. The fetch
// fails — handing a silently truncated page to the extractor would
// make it "succeed" with objects cut mid-list — and the failure is
// permanent: the page will be just as big on the next attempt.
var ErrBodyTooLarge = errors.New("fetch: response body exceeds size limit")

var (
	cacheHits   = obs.NewCounter("fetch.cache_hits", "Fetches served from the on-disk page cache.")
	cacheMisses = obs.NewCounter("fetch.cache_misses", "Fetches the on-disk page cache could not serve.")
	successes   = obs.NewCounter("fetch.success", "Fetches that returned a page (after any retries).")
	failures    = obs.NewCounter("fetch.failures", "Fetches that failed after every retry.")
	tooLarge    = obs.NewCounter("fetch.too_large", "Responses refused for exceeding the body size limit.")
)

// Fetch returns the page body for the URL, reading through the cache when
// one is configured and applying the Retry policy and host Breakers when
// they are set. Outcomes land in the context's metrics registry
// (fetch.cache_hits / fetch.cache_misses / fetch.success / fetch.failures),
// so a serving process shows its acquisition behavior on /metricsz.
func (f *Fetcher) Fetch(ctx context.Context, url string) (string, error) {
	reg := obs.RegistryFrom(ctx)
	if f.CacheDir != "" {
		if body, err := os.ReadFile(f.cachePath(url)); err == nil {
			cacheHits.Add(reg, 1)
			return string(body), nil
		}
		cacheMisses.Add(reg, 1)
	}
	var breaker *resilience.Breaker
	if f.Breakers != nil {
		if host := hostOf(url); host != "" {
			breaker = f.Breakers.For(host)
		}
	}
	policy := f.Retry
	if policy == nil {
		policy = &resilience.RetryPolicy{MaxAttempts: 1}
	}
	var body []byte
	err := policy.Do(ctx, func(ctx context.Context) error {
		if breaker != nil && !breaker.Allow() {
			return resilience.Errorf("fetch: get %s: %w", url, resilience.ErrOpen)
		}
		var err error
		body, err = f.fetchOnce(ctx, url)
		if breaker != nil {
			// Permanent failures (4xx, bad URL) mean the host answered;
			// only transient ones count against it.
			switch {
			case err == nil:
				breaker.Success()
			case !resilience.IsPermanent(err):
				breaker.Failure()
			}
		}
		return err
	})
	if err != nil {
		failures.Add(reg, 1)
		return "", err
	}
	successes.Add(reg, 1)
	if f.CacheDir != "" {
		if err := f.store(url, body); err != nil {
			return "", err
		}
	}
	return string(body), nil
}

// fetchOnce performs a single HTTP attempt, classifying the outcome for the
// retry policy: failures a retry cannot fix are marked permanent.
func (f *Fetcher) fetchOnce(ctx context.Context, url string) ([]byte, error) {
	client := f.Client
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, resilience.Errorf("fetch: build request %s: %w", url, err)
	}
	limit := f.MaxBytes
	if limit <= 0 {
		limit = defaultMaxBytes
	}
	res, err := resilience.Call(client, req, limit)
	switch {
	case res.Status == 0:
		// Connection refused, reset, attempt timeout: all transient. The
		// retry policy itself stops when the caller's context is done.
		return nil, fmt.Errorf("fetch: get %s: %w", url, err)
	case res.Status != http.StatusOK:
		err := fmt.Errorf("fetch: get %s: status %d %s", url, res.Status, http.StatusText(res.Status))
		if retryableStatus(res.Status) {
			return nil, err
		}
		return nil, resilience.Permanent(err)
	case errors.Is(err, resilience.ErrTooLarge):
		tooLarge.Add(obs.RegistryFrom(ctx), 1)
		return nil, resilience.Permanent(fmt.Errorf("fetch: read %s: %w (limit %d bytes)", url, ErrBodyTooLarge, limit))
	case err != nil:
		// Truncated transfer or mid-stream disconnect: transient.
		return nil, fmt.Errorf("fetch: read %s: %w", url, err)
	}
	return res.Body, nil
}

// retryableStatus reports whether a non-200 status is worth retrying:
// server-side failures and throttling, not client errors.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// hostOf extracts the host a URL targets ("" when unparseable), the
// breaker-group key.
func hostOf(url string) string {
	u, err := neturl.Parse(url)
	if err != nil {
		return ""
	}
	return u.Host
}

// store writes a page into the cache atomically: the body lands in a temp
// file in the cache directory and is renamed into place, so a crash
// mid-write never leaves a truncated page that poisons future runs.
func (f *Fetcher) store(url string, body []byte) error {
	path := f.cachePath(url)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fetch: cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".cache-*")
	if err != nil {
		return fmt.Errorf("fetch: cache temp: %w", err)
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("fetch: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fetch: cache close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fetch: cache rename: %w", err)
	}
	return nil
}

// cachePath maps a URL to a cache file path. Long names are truncated and
// suffixed with a hash of the full URL, so two long URLs sharing a prefix
// never collide on the same cache file.
func (f *Fetcher) cachePath(url string) string {
	name := strings.NewReplacer("://", "_", "/", "_", "?", "_", "&", "_", ":", "_").Replace(url)
	if len(name) > 200 {
		sum := sha256.Sum256([]byte(url))
		name = name[:200] + "-" + hex.EncodeToString(sum[:6])
	}
	return filepath.Join(f.CacheDir, name+".html")
}

// WithTimeout returns a derived context with the usual page-fetch deadline.
func WithTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, 30*time.Second)
}
