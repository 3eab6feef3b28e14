// Package http is a minimal stand-in for net/http so the fixture
// packages type-check inside their own module. The analyzers and the
// blocking-intrinsics table match the package name, type name, and
// method names — not the import path.
package http

import "io"

// Header mirrors net/http.Header's Set/Add surface.
type Header map[string][]string

func (h Header) Set(key, value string) {}
func (h Header) Add(key, value string) {}

// Request mirrors the outbound-request shape the analyzers inspect.
type Request struct {
	Header Header
	Body   io.ReadCloser
}

// Response mirrors net/http's response shape.
type Response struct {
	StatusCode int
	Body       io.ReadCloser
}

// Client.Do is in the blocking-intrinsics table as http.Client.Do.
type Client struct{}

func (c *Client) Do(req *Request) (*Response, error) { return nil, nil }

func NewRequest(method, url string, body io.Reader) (*Request, error) {
	return &Request{Header: Header{}}, nil
}
