package main

import (
	"bytes"
	"net/http"
)

// inproc calls a handler's ServeHTTP directly, reusing one request and
// one response writer so that the only allocations between calls are
// the handler's own.
type inproc struct {
	h    http.Handler
	req  *http.Request
	body bytesBody
	w    memWriter
}

func newInproc(h http.Handler, path string) *inproc {
	ip := &inproc{h: h, w: memWriter{header: make(http.Header)}}
	req, err := http.NewRequest(http.MethodPost, "http://perfbench"+path, nil)
	if err != nil {
		panic(err) // constant URL
	}
	req.Header.Set("Content-Type", "application/json")
	req.Body = &ip.body
	ip.req = req
	return ip
}

// prepare loads the next request body and clears the writer.
func (ip *inproc) prepare(body []byte) {
	ip.body.Reset(body)
	ip.req.ContentLength = int64(len(body))
	clear(ip.w.header)
	ip.w.code = 0
	ip.w.buf.Reset()
}

// serve runs the handler on the prepared request.
func (ip *inproc) serve() { ip.h.ServeHTTP(&ip.w, ip.req) }

// ok reports whether the last response was a 200 its check accepts.
func (ip *inproc) ok(check func([]byte) bool) bool {
	return ip.w.code == http.StatusOK && check(ip.w.buf.Bytes())
}

// bytesBody is a reusable request body.
type bytesBody struct{ bytes.Reader }

func (*bytesBody) Close() error { return nil }

// memWriter is a reusable in-memory http.ResponseWriter.
type memWriter struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (m *memWriter) Header() http.Header { return m.header }

func (m *memWriter) WriteHeader(code int) {
	if m.code == 0 {
		m.code = code
	}
}

func (m *memWriter) Write(b []byte) (int, error) {
	m.WriteHeader(http.StatusOK)
	return m.buf.Write(b)
}
