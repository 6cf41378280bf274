// Quickstart: bring up a DPM-like storage server on a simulated network,
// then use the public davix API for the basic object lifecycle — put, stat,
// ranged get, vectored read, list, delete — with a ClientTrace watching
// every request, redirect and retry as it happens.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"godavix"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/storage"
)

func main() {
	// A simulated LAN: 0.2 ms RTT, 1 Gb/s, TCP handshakes and slow start
	// modeled. Swap for a real net.Dialer by leaving Options.Dialer nil
	// and pointing the URLs at a real dpm-server.
	fabric := netsim.New(netsim.LAN())

	// Storage server.
	server := httpserv.New(storage.NewMemStore(), httpserv.Options{})
	l, err := fabric.Listen("dpm1:80")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go server.Serve(l)

	// davix client, with trace hooks subscribed: every wire request and any
	// redirect/retry/failover prints as it happens. Set Trace to
	// davix.SlogTrace(logger) instead for structured log lines.
	trace := &davix.ClientTrace{
		Request: func(method, host, path string) {
			fmt.Printf("TRACE  %s %s%s\n", method, host, path)
		},
		Redirect: func(op, fromHost, location string) {
			fmt.Printf("TRACE  %s redirected %s -> %s\n", op, fromHost, location)
		},
		Retry: func(op, host string, attempt int, err error) {
			fmt.Printf("TRACE  %s retry #%d on %s: %v\n", op, attempt, host, err)
		},
		OpDone: func(op, host, path string, d time.Duration, err error) {
			fmt.Printf("TRACE  %s %s%s done in %v err=%v\n", op, host, path, d, err)
		},
	}
	client, err := davix.New(davix.Options{Dialer: fabric, Trace: trace})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	// PUT an object.
	payload := []byte("the quick brown fox jumps over the lazy gopher")
	if err := client.Mkdir(ctx, "http://dpm1:80/store"); err != nil {
		log.Fatal(err)
	}
	if err := client.Put(ctx, "http://dpm1:80/store/hello.txt", payload); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PUT    /store/hello.txt (%d bytes)\n", len(payload))

	// STAT it.
	inf, err := client.Stat(ctx, "http://dpm1:80/store/hello.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("STAT   size=%d checksum=%s\n", inf.Size, inf.Checksum)

	// Ranged GET: bytes 4..8.
	part, err := client.GetRange(ctx, "http://dpm1:80/store/hello.txt", 4, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RANGE  [4,+5) = %q\n", part)

	// Vectored read: three scattered fragments in ONE multi-range request.
	ranges := []davix.Range{{Off: 0, Len: 3}, {Off: 10, Len: 5}, {Off: 40, Len: 6}}
	dsts := [][]byte{make([]byte, 3), make([]byte, 5), make([]byte, 6)}
	if err := client.ReadVec(ctx, "http://dpm1:80/store/hello.txt", ranges, dsts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VECTOR %q %q %q (one round trip)\n", dsts[0], dsts[1], dsts[2])
	for i, r := range ranges {
		if !bytes.Equal(dsts[i], payload[r.Off:r.End()]) {
			log.Fatalf("fragment %d mismatch", i)
		}
	}

	// File API with Seek/Read.
	f, err := client.Open(ctx, "http://dpm1:80/store/hello.txt")
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 9)
	if _, err := f.ReadAt(buf, 35); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FILE   ReadAt(35) = %q, size=%d\n", buf, f.Size())

	// LIST the collection.
	entries, err := client.List(ctx, "http://dpm1:80/store")
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		fmt.Printf("LIST   %s (%d bytes)\n", e.Path, e.Size)
	}

	// DELETE and verify.
	if err := client.Delete(ctx, "http://dpm1:80/store/hello.txt"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("DELETE /store/hello.txt")

	// One unified snapshot: engine counters, cache stats and pool stats in a
	// single coherent read. client.MetricsHandler("davix") serves the same
	// numbers as a Prometheus /metrics endpoint.
	snap := client.Snapshot()
	fmt.Printf("POOL   %d TCP connections served %d recycled requests\n",
		snap.Pool.Dials, snap.Pool.Dials+snap.Pool.Reuses)
	fmt.Printf("STATS  %d requests, %d bytes up, %d bytes down\n",
		snap.Engine.Requests, snap.Engine.BytesUp, snap.Engine.BytesDown)
}
