package cluster

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/server"
)

// benchFleet is the last rung of ROADMAP's layer ladder: a coordinator
// over two shard engines behind real loopback sockets, warmed so every
// iteration is a route-cache hit over shards whose vectors are known.
func benchFleet(b *testing.B, warm server.Request) *Coordinator {
	b.Helper()
	db := dataset.TriadicPA(1340, 6, 0.5, 33).DB(false)
	dbs, _, err := Partition(db, 2)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]string, len(dbs))
	for i, pdb := range dbs {
		srv := httptest.NewServer(server.NewHandler(server.NewEngine(pdb, server.Config{Workers: 1})))
		b.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	coord, err := NewHTTP(addrs, ClientConfig{}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		benchRun(b, coord, warm)
	}
	return coord
}

func benchRun(b *testing.B, coord *Coordinator, req server.Request) {
	var err error
	if req.Mode == "stream" {
		_, err = coord.StreamCtx(context.Background(), req, nil, func([]int64) bool { return true })
	} else {
		_, err = coord.Do(context.Background(), req)
	}
	if err != nil {
		b.Fatal(err)
	}
}

func benchCoordinator(b *testing.B, req server.Request) {
	coord := benchFleet(b, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRun(b, coord, req)
	}
}

// BenchmarkCoordinatorConstHead is a constant-head 2-star: one routed
// shard, so one shard call.
func BenchmarkCoordinatorConstHead(b *testing.B) {
	benchCoordinator(b, server.Request{Query: "E(5,y), E(5,z)"})
}

// BenchmarkCoordinatorFanout is a 2-star count merged from both shards.
func BenchmarkCoordinatorFanout(b *testing.B) {
	benchCoordinator(b, server.Request{Query: "E(x,y), E(x,z)"})
}

// BenchmarkCoordinatorStream is the first 500 rows of a 2-star, k-way
// merged from both shards' streams.
func BenchmarkCoordinatorStream(b *testing.B) {
	benchCoordinator(b, server.Request{Query: "E(x,y), E(x,z)", Mode: "stream", Limit: 500})
}
