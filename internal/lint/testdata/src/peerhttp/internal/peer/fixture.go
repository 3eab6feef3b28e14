package peer

import (
	"io"
	"strings"

	"fixture/internal/http"
)

func send(c *http.Client, req *http.Request) (int, error) {
	resp, err := c.Do(req) // want "http.Client.Do sends outside internal/resilience"
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func read(r *http.Request) ([]byte, error) {
	return io.ReadAll(r.Body) // want "read of an http.Request Body outside internal/resilience"
}

// replay hands a buffered body to a local handler: assigning a Body
// is not a read.
func replay(r *http.Request, body string) {
	r.Body = io.NopCloser(strings.NewReader(body))
}
