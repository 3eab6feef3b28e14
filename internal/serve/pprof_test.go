package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omini/internal/corpus"
	"omini/internal/obs"
	"omini/internal/resilience"
)

// profileStrings returns the string table of a gzipped pprof profile:
// field 6 of the Profile message (profile.proto).
func profileStrings(gz []byte) ([]string, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var table []string
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		var size uint64
		switch key & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(b); n <= 0 {
				return nil, errors.New("bad varint")
			}
			size = uint64(n)
		case 1: // fixed64
			size = 8
		case 5: // fixed32
			size = 4
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return nil, errors.New("bad length")
			}
			if key>>3 == 6 {
				table = append(table, string(b[n:n+int(l)]))
			}
			size = uint64(n) + l
		default:
			return nil, errors.New("unknown wire type")
		}
		if size > uint64(len(b)) {
			return nil, errors.New("truncated field")
		}
		b = b[size:]
	}
	return table, nil
}

// hotServer returns a test server that has learned the first corpus
// site, and the /extract target and page of a hot request to it.
func hotServer(t *testing.T) (ts *httptest.Server, target, page string) {
	t.Helper()
	ts = httptest.NewServer(New(Config{Stats: resilience.NewStats(), Logger: obs.NewLogger(io.Discard, obs.LevelInfo)}))
	t.Cleanup(ts.Close)
	spec := corpus.AllSpecs()[0]
	target = ts.URL + "/extract?site=" + url.QueryEscape(spec.Name)
	page = spec.Page(1).HTML
	if resp, _ := post(t, target, spec.Page(0).HTML); resp.StatusCode != http.StatusOK {
		t.Fatalf("learning %s: status %d", spec.Name, resp.StatusCode)
	}
	return ts, target, page
}

// getProfile captures a CPU profile of the given length from ts.
func getProfile(ts *httptest.Server, seconds string) (status int, body []byte, err error) {
	resp, err := http.Get(ts.URL + "/debug/pprof/profile?seconds=" + seconds)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// TestProfileCarriesRequestLabels: /extract requests served while
// /debug/pprof/profile captures carry serve's site label and the
// farm's path label into the profile, and the capture turns labelling
// off again when it ends.
func TestProfileCarriesRequestLabels(t *testing.T) {
	ts, target, page := hotServer(t)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var served atomic.Int64
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Post(target, "text/html", bytes.NewReader([]byte(page)))
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					served.Add(1)
				}
			}
		}()
	}
	status, prof, err := getProfile(ts, "1")
	stop.Store(true)
	wg.Wait()
	if err != nil || status != http.StatusOK {
		t.Fatalf("profile: status %d, err %v", status, err)
	}
	if served.Load() == 0 {
		t.Fatal("no /extract request was served during the capture")
	}
	table, err := profileStrings(prof)
	if err != nil {
		t.Fatalf("decoding the profile: %v", err)
	}
	have := map[string]bool{}
	for _, s := range table {
		have[s] = true
	}
	for _, want := range []string{"site", "path", "fast"} {
		if !have[want] {
			t.Errorf("profile string table lacks %q (%d requests served during the capture)", want, served.Load())
		}
	}
	if obs.Capturing() {
		t.Error("labelling still on after the capture ended")
	}
}

// TestOverlappingCapturesRelease: a second capture that pprof refuses
// while the first runs still releases its hold on labelling, and the
// first keeps labelling on until it ends.
func TestOverlappingCapturesRelease(t *testing.T) {
	ts, _, _ := hotServer(t)
	type result struct {
		status int
		err    error
	}
	first := make(chan result, 1)
	go func() {
		status, _, err := getProfile(ts, "1")
		first <- result{status, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); !obs.Capturing(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first capture never turned labelling on")
		}
	}
	// Let the first capture start the profiler before the second asks.
	time.Sleep(200 * time.Millisecond)
	status, _, err := getProfile(ts, "1")
	if err != nil || status == http.StatusOK {
		t.Errorf("second capture: status %d, err %v, want pprof's refusal", status, err)
	}
	if !obs.Capturing() {
		t.Error("the refused capture turned labelling off under the running one")
	}
	r := <-first
	if r.err != nil || r.status != http.StatusOK {
		t.Errorf("first capture: status %d, err %v", r.status, r.err)
	}
	if obs.Capturing() {
		t.Error("labelling still on after both captures ended")
	}
}
