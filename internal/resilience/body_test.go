package resilience

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestReadBodyMatchesReadAll: the Content-Length-sized read returns
// what io.ReadAll of the limited body returns, whether the body is as
// long as declared, shorter, longer or past the pre-sizing cap, and
// fails with ErrTooLarge past the limit; a body of the declared length
// costs one allocation, and a client that declares a large body and
// sends none makes the server allocate no more than the pre-sizing cap.
func TestReadBodyMatchesReadAll(t *testing.T) {
	const limit = 3 << 20
	for _, c := range []struct{ declared, actual int }{
		{1, 1}, {100, 100}, {100, 40}, {100, 250}, {100, limit + 10},
		{limit - 1, limit - 1}, {maxPresizedBody + 5, maxPresizedBody + 5}, {-1, 700}, {0, 0},
	} {
		body := strings.Repeat("x", c.actual)
		r := httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader(body))
		r.ContentLength = int64(c.declared)
		got, err := ReadBody(httptest.NewRecorder(), r, noDeadline, limit, nil)
		if c.actual > limit {
			if !errors.Is(err, ErrTooLarge) || got != nil {
				t.Errorf("declared %d, sent %d: got %d bytes (%v), want ErrTooLarge", c.declared, c.actual, len(got), err)
			}
			continue
		}
		want, wantErr := io.ReadAll(io.LimitReader(strings.NewReader(body), limit))
		if err != nil || wantErr != nil || !bytes.Equal(got, want) {
			t.Errorf("declared %d, sent %d: got %d bytes (%v), want %d (%v)", c.declared, c.actual, len(got), err, len(want), wantErr)
		}
	}

	for _, declared := range []int64{maxPresizedBody + 1, 1 << 20, limit - 1} {
		r := httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader(""))
		r.ContentLength = declared
		got, err := ReadBody(httptest.NewRecorder(), r, noDeadline, limit, nil)
		if err != nil || len(got) != 0 || cap(got) > maxPresizedBody+1 {
			t.Errorf("declared %d, sent nothing: %d bytes, capacity %d (%v), want 0 bytes within capacity %d",
				declared, len(got), cap(got), err, maxPresizedBody+1)
		}
	}

	page := []byte(strings.Repeat("<p>row</p>", 1000))
	src := bytes.NewReader(page)
	r := httptest.NewRequest(http.MethodPost, "/extract", io.NopCloser(src))
	r.ContentLength = int64(len(page))
	w := httptest.NewRecorder()
	if n := testing.AllocsPerRun(50, func() {
		src.Reset(page)
		if b, err := ReadBody(w, r, noDeadline, limit, nil); err != nil || len(b) != len(page) {
			t.Fatalf("read %d bytes: %v", len(b), err)
		}
	}); n != 1 {
		t.Errorf("ReadBody of a declared-length body: %v allocs, want 1", n)
	}
	// A buffer that holds the body is read into, overwriting what it held.
	buf := bytes.Repeat([]byte{'!'}, len(page)+1)
	if n := testing.AllocsPerRun(50, func() {
		src.Reset(page)
		b, err := ReadBody(w, r, noDeadline, limit, buf)
		if err != nil || !bytes.Equal(b, page) || &b[0] != &buf[0] {
			t.Fatalf("read %d bytes into the caller's buffer: %v", len(b), err)
		}
	}); n != 0 {
		t.Errorf("ReadBody into a buffer that holds the body: %v allocs, want 0", n)
	}
}

// noDeadline leaves a read unbounded in time.
var noDeadline = time.Time{}

// recordingBody is a response body that counts the bytes read from it
// and the calls to Close, and fails mid-read when failAt >= 0.
type recordingBody struct {
	src    io.Reader
	read   int
	closes int
	failAt int
}

var errMidRead = errors.New("connection reset mid-body")

func (b *recordingBody) Read(p []byte) (int, error) {
	if b.failAt >= 0 && b.read >= b.failAt {
		return 0, errMidRead
	}
	if b.failAt >= 0 && len(p) > b.failAt-b.read {
		p = p[:b.failAt-b.read]
	}
	n, err := b.src.Read(p)
	b.read += n
	return n, err
}

func (b *recordingBody) Close() error { b.closes++; return nil }

// stubTransport answers every request with one canned response.
type stubTransport struct{ resp *http.Response }

func (s stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.resp.Request = req
	return s.resp, nil
}

// TestCallClosesBodyOnEveryOutcome is the runtime proof that no peer
// answer leaks its body: whatever the status, and whether the body is
// within the limit, past it, or breaks mid-read, Call closes the body
// exactly once and reads no further than the limit plus its drain.
func TestCallClosesBodyOnEveryOutcome(t *testing.T) {
	const limit = 1000
	for _, c := range []struct {
		name    string
		status  int
		header  http.Header
		size    int
		failAt  int
		wantErr error
	}{
		{name: "200", status: http.StatusOK, size: 600, failAt: -1},
		{name: "304", status: http.StatusNotModified, size: 0, failAt: -1},
		{name: "429 with Retry-After", status: http.StatusTooManyRequests, header: http.Header{"Retry-After": {"7"}}, size: 40, failAt: -1},
		{name: "503", status: http.StatusServiceUnavailable, size: 40, failAt: -1},
		{name: "oversized", status: http.StatusOK, size: 1 << 20, failAt: -1, wantErr: ErrTooLarge},
		{name: "error mid-read", status: http.StatusOK, size: 800, failAt: 300, wantErr: errMidRead},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := &recordingBody{src: strings.NewReader(strings.Repeat("y", c.size)), failAt: c.failAt}
			header := c.header
			if header == nil {
				header = http.Header{}
			}
			client := &http.Client{Transport: stubTransport{&http.Response{
				StatusCode: c.status, Header: header, Body: body, ContentLength: -1,
			}}}
			req := httptest.NewRequest(http.MethodGet, "http://peer.invalid/rulesz", nil)
			req.RequestURI = ""
			res, err := Call(client, req, limit)
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if body.closes != 1 {
				t.Errorf("body closed %d times, want exactly once", body.closes)
			}
			if body.read > limit+1+maxDrain {
				t.Errorf("read %d bytes, want at most limit+1+maxDrain = %d", body.read, limit+1+maxDrain)
			}
			if res.Status != c.status || res.Header.Get("Retry-After") != header.Get("Retry-After") {
				t.Errorf("status %d, Retry-After %q; want %d, %q", res.Status, res.Header.Get("Retry-After"), c.status, header.Get("Retry-After"))
			}
			if c.wantErr == nil && len(res.Body) != c.size {
				t.Errorf("body %d bytes, want %d", len(res.Body), c.size)
			}
		})
	}
}
