// Package resilience is where the one bounded body reader lives: its
// sends and Body reads are allowed.
package resilience

import (
	"io"

	"fixture/internal/http"
)

func Call(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(io.LimitReader(resp.Body, 1<<20))
}
