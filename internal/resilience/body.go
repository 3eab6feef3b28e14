package resilience

import (
	"errors"
	"io"
	"net/http"
	"time"
)

// ErrTooLarge marks a body longer than its reader's limit. Nothing past
// the limit is returned: a caller that wants a bounded answer gets all
// of it or this error, never a truncated prefix.
var ErrTooLarge = errors.New("resilience: body exceeds size limit")

// Response is what Call read of a peer's answer.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

// maxDrain bounds what Call reads past an oversized body before closing
// it: a short remainder drained lets the connection be reused, a long
// one is not worth the read.
const maxDrain = 4 << 10

// Call sends req through client and reads at most limit bytes of the
// answer's body, which it closes on every path. A transport failure
// returns the zero Response. Once the answer's head has arrived, Status
// and Header are set even when reading the body fails, so callers can
// classify by status first. A body longer than limit fails with an error
// wrapping ErrTooLarge after at most maxDrain further bytes are drained.
func Call(client *http.Client, req *http.Request, limit int64) (Response, error) {
	resp, err := client.Do(req)
	if err != nil {
		return Response{}, err
	}
	defer resp.Body.Close()
	res := Response{Status: resp.StatusCode, Header: resp.Header}
	res.Body, err = readAtMost(resp.Body, resp.ContentLength, limit)
	if errors.Is(err, ErrTooLarge) {
		_, _ = io.CopyN(io.Discard, resp.Body, maxDrain)
	}
	return res, err
}

// ReadBody reads at most limit bytes of r's body, failing with
// ErrTooLarge past it. A non-zero deadline bounds the read as the
// connection's read deadline. A read that reaches the body's end, or
// the limit, clears the deadline: net/http's own read for the next
// request on the connection begins when the body ends, and a deadline
// left behind would cut that read off and cancel the connection. A
// read that fails keeps it: the rest of the body is still on the wire,
// and net/http's drain of it after the handler must not wait past the
// deadline either, so the answer goes out and the connection closes. A
// bodiless request has nothing to bound, and a writer without a
// connection cannot take a deadline (http.ErrNotSupported).
func ReadBody(w http.ResponseWriter, r *http.Request, deadline time.Time, limit int64) ([]byte, error) {
	if deadline.IsZero() || r.Body == http.NoBody {
		return readAtMost(r.Body, r.ContentLength, limit)
	}
	rc := http.NewResponseController(w)
	bounded := rc.SetReadDeadline(deadline) == nil
	b, err := readAtMost(r.Body, r.ContentLength, limit)
	if bounded && (err == nil || errors.Is(err, ErrTooLarge)) {
		_ = rc.SetReadDeadline(time.Time{})
	}
	return b, err
}

// maxPresizedBody caps the buffer a read allocates up front from a
// declared Content-Length, before any of the body has arrived. It holds
// the largest page the service is benchmarked on (the 51 KB large bench
// page) whole; a longer body grows past it as its bytes arrive, so a
// client that declares a large body and sends none pins at most this
// much per in-flight slot.
const maxPresizedBody = 64 << 10

// readAtMost is io.ReadAll(io.LimitReader(body, limit+1)) that fails
// with ErrTooLarge when the extra byte arrives. A body that declared its
// length (declared > 0) within the limit starts from a buffer holding
// all of it, up to maxPresizedBody, plus the read that sees the end, and
// grows only if it runs longer; any other starts from io.ReadAll's 512
// bytes.
func readAtMost(body io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared > 0 && declared <= limit {
		size = min(declared, maxPresizedBody) + 1
	}
	lr := io.LimitedReader{R: body, N: limit + 1}
	b := make([]byte, 0, size)
	for {
		m, err := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return b, err
			}
			if int64(len(b)) > limit {
				return nil, ErrTooLarge
			}
			return b, nil
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
