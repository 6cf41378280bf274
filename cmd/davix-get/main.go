// Command davix-get is the CLI companion of the davix library (the analog
// of the davix-get/davix-put/davix-ls tools shipped with libdavix). It
// talks plain HTTP/WebDAV to any server.
//
// Usage:
//
//	davix-get http://host:8080/store/f            # download to stdout
//	davix-get -o out.bin http://host:8080/store/f # download to file
//	davix-get -put in.bin http://host:8080/store/f
//	davix-get -stat http://host:8080/store/f
//	davix-get -ls   http://host:8080/store/
//	davix-get -mkdir http://host:8080/newdir
//	davix-get -rm    http://host:8080/store/f
//	davix-get -multistream -metalink-host fed:80 http://host:8080/big
//	davix-get -o out.bin -resume http://host:8080/big  # pick up where an
//	                                                   # interrupted run stopped
//	davix-get -v http://host:8080/store/f          # live engine events on stderr
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"godavix"
)

// verboseTrace builds the -v trace: live per-chunk progress and engine
// decisions (redirects, retries, failovers) printed to stderr as they
// happen. Chunk callbacks run concurrently during multi-stream transfers,
// so the byte total is an atomic.
func verboseTrace(chunkBytes *atomic.Int64) *davix.ClientTrace {
	return &davix.ClientTrace{
		Redirect: func(op, fromHost, location string) {
			fmt.Fprintf(os.Stderr, "davix-get: %s redirected from %s to %s\n", op, fromHost, location)
		},
		Retry: func(op, host string, attempt int, err error) {
			fmt.Fprintf(os.Stderr, "davix-get: %s retry %d on %s: %v\n", op, attempt, host, err)
		},
		Failover: func(fromHost, toHost string, err error) {
			fmt.Fprintf(os.Stderr, "davix-get: failover %s -> %s: %v\n", fromHost, toHost, err)
		},
		ChunkDone: func(dir davix.Direction, path string, idx int, off, length int64, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "davix-get: chunk %d (%s) at %d failed: %v\n", idx, dir, off, err)
				return
			}
			total := chunkBytes.Add(length)
			fmt.Fprintf(os.Stderr, "davix-get: chunk %d (%s) done: %d bytes at offset %d (%d total)\n",
				idx, dir, length, off, total)
		},
		TransferPath: func(dir davix.Direction, path string, bp davix.BytePath, bytes int64) {
			fmt.Fprintf(os.Stderr, "davix-get: %d bytes (%s) moved via %s path\n", bytes, dir, bp)
		},
		HedgeIssued: func(path string, idx int, off, length int64, toHost string) {
			fmt.Fprintf(os.Stderr, "davix-get: chunk %d slow, hedging %d bytes at %d against %s\n",
				idx, length, off, toHost)
		},
		HedgeSettled: func(path string, idx int, hedgeWon bool, wasted int64) {
			winner := "original"
			if hedgeWon {
				winner = "hedge"
			}
			fmt.Fprintf(os.Stderr, "davix-get: chunk %d hedge settled: %s won, %d bytes wasted\n",
				idx, winner, wasted)
		},
		Resume: func(dir davix.Direction, path string, resumed int64, verified, failed int) {
			fmt.Fprintf(os.Stderr, "davix-get: resume (%s): %d bytes intact across %d chunks, %d chunks failed re-verification\n",
				dir, resumed, verified, failed)
		},
		Verified: func(dir davix.Direction, path, algo string) {
			fmt.Fprintf(os.Stderr, "davix-get: %s (%s) verified end to end with %s\n", path, dir, algo)
		},
	}
}

// printSummary renders the client's unified snapshot after a -v run.
func printSummary(s davix.Snapshot) {
	fmt.Fprintf(os.Stderr, "davix-get: %d requests, %d retries, %d redirects, %d failovers, %d bytes up, %d bytes down\n",
		s.Engine.Requests, s.Engine.Retries, s.Engine.Redirects, s.Engine.Failovers,
		s.Engine.BytesUp, s.Engine.BytesDown)
	fmt.Fprintf(os.Stderr, "davix-get: byte path: %d kernel down, %d pooled down, %d kernel up, %d pooled up; %d transfers verified, %d mismatches, %d uploads fell back to serial\n",
		s.Engine.KernelBytesDown, s.Engine.PooledBytesDown,
		s.Engine.KernelBytesUp, s.Engine.PooledBytesUp,
		s.Engine.TransfersVerified, s.Engine.ChecksumMismatches, s.Engine.UploadsFellBackSerial)
	if s.Engine.HedgesIssued > 0 || s.Engine.ResumedBytes > 0 || s.Engine.ResumeVerifyFailures > 0 {
		fmt.Fprintf(os.Stderr, "davix-get: self-heal: %d hedges (%d won, %d bytes wasted), %d bytes resumed, %d resume re-verify failures\n",
			s.Engine.HedgesIssued, s.Engine.HedgeWins, s.Engine.HedgeWastedBytes,
			s.Engine.ResumedBytes, s.Engine.ResumeVerifyFailures)
	}
	fmt.Fprintf(os.Stderr, "davix-get: pool: %d dials, %d reuses, %d discards\n",
		s.Pool.Dials, s.Pool.Reuses, s.Pool.Discards)
	for _, q := range s.Expo().Quantiles {
		fmt.Fprintf(os.Stderr, "davix-get: %-14s n=%-4d p50=%v p99=%v\n", q.Op, q.Count, q.P50, q.P99)
	}
}

func main() {
	out := flag.String("o", "", "write downloaded data to this file (default stdout)")
	putFile := flag.String("put", "", "upload this local file to the URL")
	doStat := flag.Bool("stat", false, "stat the URL")
	doLs := flag.Bool("ls", false, "list the collection at the URL")
	recursive := flag.Bool("r", false, "with -ls: recurse into subcollections")
	doRm := flag.Bool("rm", false, "delete the URL")
	doMkdir := flag.Bool("mkdir", false, "create a collection at the URL")
	multiStream := flag.Bool("multistream", false, "download with the multi-stream strategy")
	metalinkHost := flag.String("metalink-host", "", "federation host consulted for Metalinks")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	token := flag.String("token", "", "bearer token for Authorization")
	user := flag.String("user", "", "username for HTTP Basic auth (with -password)")
	password := flag.String("password", "", "password for HTTP Basic auth")
	verify := flag.Bool("verify", false, "verify checksums end to end (inline digests on streaming transfers)")
	resume := flag.Bool("resume", false, "with -o or -put: checkpoint chunk completions to a sidecar and resume an interrupted transfer from it")
	hedge := flag.Duration("hedge", 0, "hedged-read latency budget for multi-replica downloads (0 auto-derives from live P99, negative disables)")
	s3Key := flag.String("s3-key", "", "AWS access key (SigV4 signing, with -s3-secret)")
	s3Secret := flag.String("s3-secret", "", "AWS secret key")
	s3Region := flag.String("s3-region", "us-east-1", "AWS region for SigV4 scope")
	copyTo := flag.String("copy-to", "", "third-party copy the URL to this destination URL")
	verbose := flag.Bool("v", false, "print live engine events and a transfer summary to stderr")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "davix-get: exactly one URL argument required")
		flag.Usage()
		os.Exit(2)
	}
	url := flag.Arg(0)

	var creds *davix.Credentials
	if *token != "" {
		creds = &davix.Credentials{Bearer: *token}
	} else if *user != "" {
		creds = &davix.Credentials{Username: *user, Password: *password}
	}
	var s3creds *davix.S3Credentials
	if *s3Key != "" {
		s3creds = &davix.S3Credentials{AccessKey: *s3Key, SecretKey: *s3Secret, Region: *s3Region}
	}
	var chunkBytes atomic.Int64
	var trace *davix.ClientTrace
	if *verbose {
		trace = verboseTrace(&chunkBytes)
	}
	client, err := davix.New(davix.Options{
		RequestTimeout:  *timeout,
		MetalinkHost:    *metalinkHost,
		Auth:            creds,
		VerifyTransfers: *verify,
		HedgeDelay:      *hedge,
		Resume:          *resume,
		S3:              s3creds,
		Trace:           trace,
	})
	if err != nil {
		log.Fatalf("davix-get: %v", err)
	}
	defer client.Close()
	if *verbose {
		defer func() { printSummary(client.Snapshot()) }()
	}
	ctx := context.Background()

	switch {
	case *copyTo != "":
		if err := client.Copy(ctx, url, *copyTo); err != nil {
			log.Fatalf("davix-get: copy: %v", err)
		}
		fmt.Fprintf(os.Stderr, "copied %s -> %s (server to server)\n", url, *copyTo)

	case *putFile != "":
		// Stream straight from the open file: the body never materializes
		// in client memory, and on a plain-TCP connection the kernel
		// sendfile path moves it without a userspace copy.
		f, err := os.Open(*putFile)
		if err != nil {
			log.Fatalf("davix-get: %v", err)
		}
		st, err := f.Stat()
		if err != nil {
			log.Fatalf("davix-get: %v", err)
		}
		if *resume {
			// Checkpointed chunked upload: completions journal to a sidecar
			// next to the source, so a rerun re-sends only what is missing.
			err = client.UploadMultiStream(ctx, url, f, st.Size())
		} else {
			err = client.PutReader(ctx, url, f, st.Size())
		}
		if err != nil {
			log.Fatalf("davix-get: put: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "uploaded %d bytes to %s\n", st.Size(), url)

	case *doStat:
		inf, err := client.Stat(ctx, url)
		if err != nil {
			log.Fatalf("davix-get: stat: %v", err)
		}
		kind := "file"
		if inf.Dir {
			kind = "collection"
		}
		fmt.Printf("%s\t%s\t%d bytes\tmod %s\t%s\n", inf.Path, kind, inf.Size,
			inf.ModTime.Format(time.RFC3339), inf.Checksum)

	case *doLs:
		printEntry := func(e davix.Info) {
			marker := ""
			if e.Dir {
				marker = "/"
			}
			fmt.Printf("%10d  %s  %s%s\n", e.Size, e.ModTime.Format("2006-01-02 15:04"), e.Path, marker)
		}
		if *recursive {
			err := client.Walk(ctx, url, func(e davix.Info) error {
				printEntry(e)
				return nil
			})
			if err != nil {
				log.Fatalf("davix-get: ls -r: %v", err)
			}
			break
		}
		entries, err := client.List(ctx, url)
		if err != nil {
			log.Fatalf("davix-get: ls: %v", err)
		}
		for _, e := range entries {
			printEntry(e)
		}

	case *doRm:
		if err := client.Delete(ctx, url); err != nil {
			log.Fatalf("davix-get: rm: %v", err)
		}

	case *doMkdir:
		if err := client.Mkdir(ctx, url); err != nil {
			log.Fatalf("davix-get: mkdir: %v", err)
		}

	default:
		if *out != "" {
			// Download straight into the opened file: chunks scatter to
			// their offsets without the object ever materializing in client
			// memory, and with -verify off the kernel splice path moves the
			// payload without a userspace copy (-v shows which path ran).
			// With -resume the existing bytes must survive the reopen —
			// they are what the checkpoint journal re-verifies against.
			var f *os.File
			var err error
			if *resume {
				f, err = os.OpenFile(*out, os.O_RDWR|os.O_CREATE, 0o644)
			} else {
				f, err = os.Create(*out)
			}
			if err != nil {
				log.Fatalf("davix-get: %v", err)
			}
			n, err := client.DownloadMultiStreamTo(ctx, url, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				log.Fatalf("davix-get: %v", err)
			}
			fmt.Fprintf(os.Stderr, "downloaded %d bytes to %s\n", n, *out)
			break
		}
		var data []byte
		var err error
		if *multiStream {
			data, err = client.DownloadMultiStream(ctx, url)
		} else {
			data, err = client.Get(ctx, url)
		}
		if err != nil {
			log.Fatalf("davix-get: %v", err)
		}
		if _, err := os.Stdout.Write(data); err != nil {
			log.Fatalf("davix-get: %v", err)
		}
	}
}
