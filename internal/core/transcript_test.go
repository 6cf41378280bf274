package core

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"godavix/internal/httpserv"
)

var update = flag.Bool("update", false, "rewrite testdata/wire from this run's transcripts")

// TestWireTranscripts holds what the client puts on the wire to golden
// files, one per scenario under testdata/wire. Every request that reaches
// a gateway's fault layer is one line: the operation that sent it, method,
// host, target, sorted headers (X-Upload-Id masked), the request body's
// length and hash, and the response status. A scenario is compared as a
// sorted multiset of lines, since concurrent requests arrive in any order,
// except the width-1 walks, which send one request at a time and are
// compared in order. A change that should leave the wire alone leaves
// every file as it is; one that changes the wire shows the change as a
// diff of these files, after `go test ./internal/core/ -run
// '^TestWireTranscripts$' -update`.
func TestWireTranscripts(t *testing.T) {
	// Retries are bookkeeping while every replica is healthy: both
	// budgets send exactly the same requests.
	for _, attempts := range []int{1, 3} {
		t.Run(fmt.Sprintf("healthy/retry_%d", attempts), func(t *testing.T) {
			checkGolden(t, "healthy", healthyTranscript(t, attempts), false)
		})
	}
	for _, sc := range replicaScenarios {
		t.Run("replica/"+sc.name, func(t *testing.T) {
			var lines []string
			for _, ent := range replicaEntries {
				_, wire, _ := runReplicaCell(t, sc, ent)
				lines = append(lines, wire...)
			}
			checkGolden(t, "replica_"+strings.NewReplacer(" ", "_", "-", "_").Replace(sc.name), lines, false)
		})
	}
	t.Run("overload_shed", func(t *testing.T) {
		checkGolden(t, "overload_shed", shedTranscript(t, ""), false)
	})
	t.Run("overload_shed/metalink_host", func(t *testing.T) {
		checkGolden(t, "overload_shed_metalink_host", shedTranscript(t, "fed:80"), false)
	})
	t.Run("walk/width_1", func(t *testing.T) {
		var lines []string
		for _, row := range walkRows {
			lines = walkTranscript(t, 1, row, lines)
		}
		checkGolden(t, "walk_width1", lines, true)
	})
	t.Run("walk/width_2", func(t *testing.T) {
		checkGolden(t, "walk_width2", walkTranscript(t, 2, walkRows[0], nil), false)
	})
}

// wireLog marks a place in an environment's transcripts: how many
// requests each server had seen.
type wireLog struct{ seen map[string]int }

func newWireLog() *wireLog { return &wireLog{seen: map[string]int{}} }

// take appends to lines, labelled op, each request e's gateways have seen
// since w: server by server, each in arrival order, once it has been
// answered. It then moves w past them.
func (w *wireLog) take(t *testing.T, e *testEnv, op string, lines []string) []string {
	t.Helper()
	addrs := make([]string, 0, len(e.faults))
	for addr := range e.faults {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	deadline := time.Now().Add(5 * time.Second)
	for _, addr := range addrs {
		xs := e.faults[addr].Exchanges()
		for i := w.seen[addr]; i < len(xs); i++ {
			for !xs[i].Done {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %s still unanswered after 5 s", op, xs[i])
				}
				time.Sleep(time.Millisecond)
				xs[i] = e.faults[addr].Exchanges()[i]
			}
			lines = append(lines, op+" | "+xs[i].String())
		}
		w.seen[addr] = len(xs)
	}
	return lines
}

// checkGolden compares lines with testdata/wire/name.txt, as a sorted
// multiset unless ordered, or rewrites the file under -update.
func checkGolden(t *testing.T, name string, lines []string, ordered bool) {
	t.Helper()
	if !ordered {
		lines = slices.Sorted(slices.Values(lines))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "wire", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got == string(b) {
		return
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	var diff strings.Builder
	for _, l := range multisetMinus(want, lines) {
		diff.WriteString("- " + l + "\n")
	}
	for _, l := range multisetMinus(lines, want) {
		diff.WriteString("+ " + l + "\n")
	}
	if diff.Len() == 0 {
		diff.WriteString("the same requests, in another order\n")
	}
	t.Errorf("%s: this run's transcript differs (- golden, + this run):\n%s", path, diff.String())
}

// multisetMinus returns the lines of a not matched, one for one, in b.
func multisetMinus(a, b []string) []string {
	left := map[string]int{}
	for _, l := range b {
		left[l]++
	}
	var out []string
	for _, l := range a {
		if left[l] > 0 {
			left[l]--
		} else {
			out = append(out, l)
		}
	}
	return out
}

// healthyTranscript runs every public entry point once against healthy
// replicas (replicaEnv, with verification on) under a retry budget of
// attempts, and returns what reached the gateways. Transfers move the
// object in two chunks, so an upload's probe chunk is answered 202 and the
// one after it, which completes the object, 201.
func healthyTranscript(t *testing.T, attempts int) []string {
	e := replicaEnv(t, Options{
		MetalinkHost:    "fed:80",
		ChunkSize:       replicaSize / 2,
		HedgeDelay:      -1,
		VerifyTransfers: true,
		Retry:           RetryPolicy{Attempts: attempts},
	}, replicaBlob)
	e.startServer(t, "dst:80", httpserv.Options{})
	copier, err := NewClient(Options{Dialer: e.net, Strategy: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(copier.Close)
	e.startServer(t, "src:80", httpserv.Options{Copier: copier})
	e.stores["src:80"].Put("/f", replicaBlob)

	ctx := context.Background()
	small := bytes.Repeat([]byte("put!"), 256)
	var f *File
	ops := []struct {
		name string
		run  func() error
	}{
		{"Stat", func() error { _, err := e.client.Stat(ctx, dpm1, "/f"); return err }},
		{"Get", func() error { _, err := e.client.Get(ctx, dpm1, "/f"); return err }},
		{"GetRange", func() error { _, err := e.client.GetRange(ctx, dpm1, "/f", 1000, 3000); return err }},
		{"ReadVec", func() error {
			return e.client.ReadVec(ctx, dpm1, "/f", replicaVec, [][]byte{make([]byte, 512), make([]byte, 4096)})
		}},
		{"Open", func() (err error) { f, err = e.client.Open(ctx, dpm1, "/f"); return err }},
		{"File.ReadAt", func() error {
			_, err := f.ReadAt(make([]byte, replicaReadLen), replicaReadOff)
			return err
		}},
		{"File.ReadVec", func() error {
			return f.ReadVec(replicaVec, [][]byte{make([]byte, 512), make([]byte, 4096)})
		}},
		{"File.Close", func() error { return f.Close() }},
		{"DownloadMultiStream", func() error { _, err := e.client.DownloadMultiStream(ctx, dpm1, "/f"); return err }},
		{"DownloadMultiStreamTo", func() error {
			_, err := e.client.DownloadMultiStreamTo(ctx, dpm1, "/f", &bufWriterAt{b: make([]byte, replicaSize)})
			return err
		}},
		{"CopyStream", func() error { return e.client.CopyStream(ctx, dpm1, "/f", "http://dst:80/copy") }},
		{"Copy", func() error { return e.client.Copy(ctx, "src:80", "/f", "http://dst:80/tpc") }},
		{"Put", func() error { return e.client.Put(ctx, dpm1, "/small", small) }},
		{"PutReader", func() error {
			return e.client.PutReader(ctx, dpm1, "/reader", bytes.NewReader(small), int64(len(small)))
		}},
		{"UploadMultiStream", func() error {
			return e.client.UploadMultiStream(ctx, dpm1, "/up", bytes.NewReader(replicaBlob), replicaSize)
		}},
		{"Mkdir", func() error { return e.client.Mkdir(ctx, dpm1, "/dir") }},
		{"List", func() error { _, err := e.client.List(ctx, dpm1, "/"); return err }},
		{"Walk", func() error { return e.client.Walk(ctx, dpm1, "/", func(Info) error { return nil }) }},
		{"GetMetalink", func() error { _, err := e.client.GetMetalink(ctx, dpm1, "/f"); return err }},
		{"Delete", func() error { return e.client.Delete(ctx, dpm1, "/small") }},
	}
	w := newWireLog()
	var lines []string
	for _, op := range ops {
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		lines = w.take(t, e, op.name, lines)
	}
	return lines
}

// shedTranscript overloads a gateway of one slot and one queue place: two
// uploads whose bodies the test holds open take both, so a Get is shed
// with 503. With no MetalinkHost the replica lookup would go to the host
// that shed, so the Get returns the shed, Retry-After included, without
// asking for a Metalink; a metalinkHost, which knows no replica, is still
// asked. Then the held bodies complete and both uploads commit.
func shedTranscript(t *testing.T, metalinkHost string) []string {
	e := newEnv(t, Options{MetalinkHost: metalinkHost})
	e.startServer(t, dpm1, httpserv.Options{
		Limits: httpserv.Limits{MaxInFlight: 1, QueueDepth: 1, QueueWait: time.Minute},
	})
	if metalinkHost != "" {
		e.startServer(t, metalinkHost, httpserv.Options{})
	}
	w := newWireLog()
	var held []interface{ Write([]byte) (int, error) }
	for i := 0; i < 2; i++ {
		c, err := e.net.Dial(dpm1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		fmt.Fprintf(c, "PUT /held-%d HTTP/1.1\r\nHost: %s\r\nContent-Length: 2\r\n\r\nx", i, dpm1)
		held = append(held, c)
	}
	deadline := time.Now().Add(2 * time.Second)
	for snapCounter(e.srvs[dpm1], "inflight")+snapCounter(e.srvs[dpm1], "admission_queue") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("held uploads never occupied the gateway")
		}
		time.Sleep(time.Millisecond)
	}
	var se *StatusError
	if _, err := e.client.Get(context.Background(), dpm1, "/f"); !errors.As(err, &se) || se.Code != 503 || se.RetryAfter <= 0 {
		t.Fatalf("Get past a full gateway: %v, want a 503 shed with its Retry-After", err)
	}
	for _, c := range held {
		c.Write([]byte("y"))
	}
	return w.take(t, e, "shed", nil)
}

// escapedObjects is a tree whose names are not plain URL path characters.
var escapedObjects = map[string]string{
	"/t/a b/x.dat":       "space",
	"/t/a b/c d/y z.dat": "nested spaces",
	"/t/q?uery.dat":      "question mark",
	"/t/100%.dat":        "percent",
	"/t/100%/%41.dat":    "percent dir",
	"/t/hash#1/z.dat":    "hash",
	"/t/a&b.dat":         "ampersand",
	"/t/été €.dat":       "non-ASCII",
	"/t/plain.dat":       "plain",
}

// walkRow is one Walk over escapedObjects: from root, with fn returning
// SkipDir on the entry skip and errStop on the entry stop.
type walkRow struct{ name, root, skip, stop string }

var errStop = errors.New("stop")

var walkRows = []walkRow{
	{name: "walk", root: "/t"},
	{name: "skip first collection", root: "/t", skip: "/t/100%25"},
	{name: "fn error", root: "/t", stop: "/t/a%20b/c%20d"},
	{name: "single-file root", root: "/t/plain.dat"},
}

// walkTranscript runs row at width par against a fresh gateway holding
// escapedObjects and appends what reached it to lines.
func walkTranscript(t *testing.T, par int, row walkRow, lines []string) []string {
	e := newEnv(t, Options{Strategy: StrategyNone, MaxPerHost: par})
	e.startServer(t, dpm1, httpserv.Options{})
	for p, body := range escapedObjects {
		if err := e.stores[dpm1].Put(p, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	err := e.client.Walk(context.Background(), dpm1, row.root, func(inf Info) error {
		switch inf.Path {
		case row.skip:
			return SkipDir
		case row.stop:
			return errStop
		}
		return nil
	})
	if row.stop != "" && !errors.Is(err, errStop) || row.stop == "" && err != nil {
		t.Fatalf("%s: Walk = %v", row.name, err)
	}
	return newWireLog().take(t, e, row.name, lines)
}
