// Package http is a minimal stand-in for net/http so the fixture
// packages type-check inside their own module. peerhttp matches the
// package name and type names, not the import path.
package http

import "io"

type Request struct {
	Body io.ReadCloser
}

type Response struct {
	StatusCode int
	Body       io.ReadCloser
}

type Client struct{}

func (c *Client) Do(req *Request) (*Response, error) { return nil, nil }
