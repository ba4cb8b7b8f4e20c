package faults

import (
	"io"
	"net/http"
	"strings"
	"time"
)

// Transport wraps an http.RoundTripper with fault injection. Each
// request consults the site "<Site>/<class>" where class is derived
// from the request path ("query", "stream", "update", "stats",
// "healthz", or "other"): streamed and buffered queries are separate
// classes so a schedule can cut streams mid-body without also dropping
// the cheap preflight probes. Only tests install one: this package's
// and the cluster chaos and fault-tolerance tests (chaos_test.go,
// faulttolerance_test.go), through ClientConfig.Transport.
type Transport struct {
	// Base performs the real round trips (http.DefaultTransport when nil).
	Base http.RoundTripper
	// Inj schedules the faults; nil passes everything through.
	Inj *Injector
	// Site prefixes every site name, conventionally "transport/<shard>".
	Site string
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	o := t.Inj.Fire(t.Site + "/" + classOf(req))
	if o == nil {
		return base.RoundTrip(req)
	}
	switch o.Kind {
	case KindDelay:
		timer := time.NewTimer(o.Delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
		return base.RoundTrip(req)
	case KindReset:
		// The server saw and processed the request; the client never
		// learns the answer — the ambiguous half of a transport error.
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, o.Err
	case KindTruncate:
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatedBody{rc: resp.Body, left: o.Bytes, err: o.Err}
		resp.ContentLength = -1
		return resp, nil
	default: // KindFail: dropped before the server sees it
		return nil, o.Err
	}
}

// classOf buckets a request into its injection class. Stream queries
// are told apart from buffered ones by the request body's mode field,
// which the cluster client always sets; sniffing would consume the
// body, so the client stashes the class in a header instead.
func classOf(req *http.Request) string {
	if c := req.Header.Get(ClassHeader); c != "" {
		return c
	}
	switch {
	case strings.HasPrefix(req.URL.Path, "/query"):
		return "query"
	case strings.HasPrefix(req.URL.Path, "/update"):
		return "update"
	case strings.HasPrefix(req.URL.Path, "/stats"):
		return "stats"
	case strings.HasPrefix(req.URL.Path, "/healthz"):
		return "healthz"
	default:
		return "other"
	}
}

// ClassHeader lets a client announce a finer request class than the URL
// path implies (the cluster client marks streamed queries "stream").
// The header is stripped by no one — servers ignore it.
const ClassHeader = "X-Faults-Class"

// truncatedBody delivers at most left bytes of the real body, then
// fails the read — a response connection dying mid-body.
type truncatedBody struct {
	rc   io.ReadCloser
	left int
	err  error
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, b.err
	}
	if len(p) > b.left {
		p = p[:b.left]
	}
	n, err := b.rc.Read(p)
	b.left -= n
	if err == io.EOF {
		return n, io.EOF
	}
	if b.left <= 0 && err == nil {
		err = b.err
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.rc.Close() }
