// TPC: the WLCG data-management features around the core paper — a DPM
// head node redirecting data operations to its disk node, bearer-token
// authorization, end-to-end checksum verification, and third-party COPY
// where the bytes flow server-to-server without transiting the client.
//
// Run with: go run ./examples/tpc
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	"godavix"
	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/storage"
)

const token = "Bearer wlcg-demo-token"

func main() {
	fabric := netsim.New(netsim.LAN())
	ctx := context.Background()

	authorize := func(a string) bool { return a == token }

	// Site A: head node + disk node (DPM style). The head node owns the
	// namespace and authorizes every request; GET/PUT are redirected to
	// the disk node. The client drops its token on that cross-host hop, as
	// it must, so the disk node serves whoever the head node sent: it
	// trusts the head's redirect, not the bearer token. (DPM signs that
	// redirect; here only the head node hands out diskA's address.)
	diskStore := storage.NewMemStore()
	serve(fabric, "diskA:80", httpserv.New(diskStore, httpserv.Options{}))

	// The head node pushes third-party copies through its own client.
	headCopier, err := core.NewClient(core.Options{
		Dialer: fabric, Strategy: core.StrategyNone,
		Auth: &core.Credentials{Bearer: "wlcg-demo-token"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer headCopier.Close()
	head := httpserv.New(diskStore, httpserv.Options{
		Authorize: authorize,
		Copier:    headCopier,
		Redirect: func(method, p string) (string, bool) {
			// Namespace ops stay here; object data lives on the disk node.
			return "http://diskA:80" + p, true
		},
	})
	serve(fabric, "headA:80", head)

	// Site B: a plain storage server at another site.
	siteBStore := storage.NewMemStore()
	serve(fabric, "siteB:80", httpserv.New(siteBStore, httpserv.Options{Authorize: authorize}))

	// The user's client: token auth + checksum verification.
	client, err := davix.New(davix.Options{
		Dialer:          fabric,
		Auth:            &davix.Credentials{Bearer: "wlcg-demo-token"},
		VerifyTransfers: true,
		Strategy:        davix.StrategyNone,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// 1. Upload via the head node: the PUT is redirected to the disk node.
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(9)).Read(payload)
	if err := client.Put(ctx, "http://headA:80/store/run42.rnt", payload); err != nil {
		log.Fatal(err)
	}
	if _, _, err := diskStore.Get("/store/run42.rnt"); err != nil {
		log.Fatal("object did not land on the disk node")
	}
	fmt.Println("[1] PUT via head node redirected to diskA (data on disk node)")

	// 2. Download through the head node with checksum verification.
	got, err := client.Get(ctx, "http://headA:80/store/run42.rnt")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		log.Fatal("payload mismatch")
	}
	fmt.Println("[2] GET via head node: redirect followed, crc32c checksum verified")

	// 3. Unauthorized access is refused.
	anon, _ := davix.New(davix.Options{Dialer: fabric})
	defer anon.Close()
	if _, err := anon.Get(ctx, "http://headA:80/store/run42.rnt"); err == nil {
		log.Fatal("anonymous access succeeded?!")
	} else {
		fmt.Printf("[3] anonymous GET rejected: %v\n", err)
	}

	// 4. Third-party copy to site B: one COPY request; the head node
	//    pushes the bytes directly.
	if err := client.Copy(ctx, "http://headA:80/store/run42.rnt", "http://siteB:80/import/run42.rnt"); err != nil {
		log.Fatal(err)
	}
	landed, _, err := siteBStore.Get("/import/run42.rnt")
	if err != nil || !bytes.Equal(landed, payload) {
		log.Fatal("third-party copy failed")
	}
	fmt.Printf("[4] third-party COPY headA→siteB: %.1f MiB moved server-to-server\n",
		float64(len(landed))/(1<<20))

	pool := client.Snapshot().Pool
	fmt.Printf("    client pool: %d dials, %d recycled requests\n", pool.Dials, pool.Reuses)
}

func serve(n *netsim.Network, addr string, srv *httpserv.Server) {
	l, err := n.Listen(addr)
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
}
