package faults

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Same seed, same call sequence => same decisions; a different seed
// disagrees somewhere. This is the reproducibility contract the chaos
// soak leans on.
func TestDeterministicAcrossRuns(t *testing.T) {
	run := func(seed uint64) []bool {
		in := New(seed).Add(Rule{Site: "transport/*/query", P: 0.3})
		var fires []bool
		for _, site := range []string{"transport/a/query", "transport/b/query"} {
			for i := 0; i < 200; i++ {
				fires = append(fires, in.Fire(site) != nil)
			}
		}
		return fires
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 400-call schedules")
	}
	// Decisions at one site must not depend on interleaving with others.
	in := New(42).Add(Rule{Site: "transport/*/query", P: 0.3})
	var inter []bool
	for i := 0; i < 200; i++ {
		inter = append(inter, in.Fire("transport/a/query") != nil)
		in.Fire("transport/b/query")
	}
	for i := 0; i < 200; i++ {
		if a[i] != inter[i] {
			t.Fatalf("interleaving changed site-a decision at call %d", i)
		}
	}
}

func TestNthAndLimit(t *testing.T) {
	sentinel := errors.New("boom")
	in := New(1).Add(Rule{Site: "store/E.wal/sync", Nth: 3, Err: sentinel})
	for i := 1; i <= 10; i++ {
		err := in.Check("store/E.wal/sync")
		if i == 3 && !errors.Is(err, sentinel) {
			t.Fatalf("call 3: got %v, want sentinel", err)
		}
		if i != 3 && err != nil {
			t.Fatalf("call %d fired unexpectedly: %v", i, err)
		}
	}

	in = New(1).Add(Rule{Site: "s/*", P: 1, Limit: 2})
	fires := 0
	for i := 0; i < 10; i++ {
		if in.Check("s/a") != nil {
			fires++
		}
	}
	if fires != 2 {
		t.Fatalf("Limit=2 fired %d times", fires)
	}
}

func TestGlobMatching(t *testing.T) {
	cases := []struct {
		glob, site string
		want       bool
	}{
		{"transport/*/query", "transport/shard0/query", true},
		{"transport/*/query", "transport/shard0/update", false},
		{"transport/*/query", "transport/a/b/query", false},
		{"store/E.wal/sync", "store/E.wal/sync", true},
		{"store/*/sync", "store/R.wal/sync", true},
		{"*", "anything", true},
		{"*", "a/b", false},
		{"a/b", "a", false},
	}
	for _, c := range cases {
		if got := matchSite(strings.Split(c.glob, "/"), c.site); got != c.want {
			t.Errorf("match(%q, %q) = %v, want %v", c.glob, c.site, got, c.want)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Fire("x") != nil || in.Check("x") != nil || in.Seed() != 0 {
		t.Fatal("nil injector injected something")
	}
	n, err := in.WriteLen("x", 9)
	if n != 9 || err != nil {
		t.Fatalf("nil WriteLen = (%d, %v)", n, err)
	}
}

func TestWriteLenShortAndFail(t *testing.T) {
	in := New(7).
		Add(Rule{Site: "w/short", Kind: KindShort, Nth: 1, Bytes: 4}).
		Add(Rule{Site: "w/fail", Nth: 1})
	n, err := in.WriteLen("w/short", 10)
	if n != 4 || err == nil {
		t.Fatalf("short write = (%d, %v), want (4, err)", n, err)
	}
	n, err = in.WriteLen("w/short", 10) // Nth=1 only
	if n != 10 || err != nil {
		t.Fatalf("second write = (%d, %v), want clean", n, err)
	}
	n, err = in.WriteLen("w/fail", 10)
	if n != 0 || err == nil {
		t.Fatalf("failed write = (%d, %v), want (0, err)", n, err)
	}
}

func TestFirstMatchingRuleDecides(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	in := New(1).
		Add(Rule{Site: "s/x", Nth: 1, Err: errA}).
		Add(Rule{Site: "s/*", P: 1, Err: errB})
	if err := in.Check("s/x"); !errors.Is(err, errA) {
		t.Fatalf("call 1: got %v, want rule A", err)
	}
	if err := in.Check("s/x"); !errors.Is(err, errB) {
		t.Fatalf("call 2: got %v, want rule B", err)
	}
}

func transportFor(in *Injector, h http.Handler) (*Transport, *httptest.Server) {
	srv := httptest.NewServer(h)
	return &Transport{Inj: in, Site: "transport/s0"}, srv
}

func TestTransportFailDropsRequest(t *testing.T) {
	served := 0
	tr, srv := transportFor(
		New(1).Add(Rule{Site: "transport/s0/query", Nth: 1}),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { served++ }))
	defer srv.Close()
	client := &http.Client{Transport: tr}

	if _, err := client.Post(srv.URL+"/query", "application/json", nil); err == nil {
		t.Fatal("dropped request succeeded")
	}
	if served != 0 {
		t.Fatalf("server saw %d requests through a KindFail, want 0", served)
	}
	resp, err := client.Post(srv.URL+"/query", "application/json", nil)
	if err != nil {
		t.Fatalf("second request: %v", err)
	}
	resp.Body.Close()
	if served != 1 {
		t.Fatalf("server saw %d requests, want 1", served)
	}
}

func TestTransportResetServesThenFails(t *testing.T) {
	served := 0
	tr, srv := transportFor(
		New(1).Add(Rule{Site: "transport/s0/update", Nth: 1}),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { served++ }))
	defer srv.Close()
	tr.Inj = New(1).Add(Rule{Site: "transport/s0/update", Kind: KindReset, Nth: 1})
	client := &http.Client{Transport: tr}

	if _, err := client.Post(srv.URL+"/update", "application/json", nil); err == nil {
		t.Fatal("reset request reported success")
	}
	if served != 1 {
		t.Fatalf("server saw %d requests through a KindReset, want 1 (request delivered, response lost)", served)
	}
}

func TestTransportTruncateCutsBody(t *testing.T) {
	body := strings.Repeat("x", 1000)
	tr, srv := transportFor(
		New(1).Add(Rule{Site: "transport/s0/stream", Kind: KindTruncate, Nth: 1, Bytes: 100}),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, body) }))
	defer srv.Close()
	client := &http.Client{Transport: tr}

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/query", nil)
	req.Header.Set(ClassHeader, "stream")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("truncated response failed at round trip: %v", err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatal("reading a truncated body succeeded")
	}
	if len(got) != 100 {
		t.Fatalf("read %d bytes before failure, want 100", len(got))
	}
}

func TestTransportDelayStalls(t *testing.T) {
	tr, srv := transportFor(
		New(1).Add(Rule{Site: "transport/s0/query", Kind: KindDelay, Nth: 1, Delay: 50 * time.Millisecond}),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	client := &http.Client{Transport: tr}

	start := time.Now()
	resp, err := client.Post(srv.URL+"/query", "application/json", nil)
	if err != nil {
		t.Fatalf("delayed request failed: %v", err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("delayed request returned in %v, want >= 50ms", d)
	}
}
