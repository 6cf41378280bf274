package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"net/http"
	"strings"
	"testing"
	"time"

	"godavix/internal/httpserv"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		v    string
		want time.Duration
	}{
		{"empty", "", 0},
		{"seconds", "3", 3 * time.Second},
		{"seconds-zero", "0", 0},
		{"seconds-negative", "-5", 0},
		{"seconds-spaces", "  7  ", 7 * time.Second},
		{"http-date-future", now.Add(90 * time.Second).Format("Mon, 02 Jan 2006 15:04:05 GMT"), 90 * time.Second},
		{"http-date-past", now.Add(-time.Minute).Format("Mon, 02 Jan 2006 15:04:05 GMT"), 0},
		{"garbage", "soon", 0},
		{"float-rejected", "1.5", 0},
		// Around the largest whole-second Duration: past it the product
		// used to wrap negative, then small, then ParseInt gave up.
		{"seconds-largest", "9223372036", 9223372036 * time.Second},
		{"seconds-wraps-negative", "9223372037", math.MaxInt64},
		{"seconds-wraps-small", "18446744074", math.MaxInt64},
		{"seconds-past-int64", "99999999999999999999", math.MaxInt64},
		{"seconds-past-int64-negative", "-99999999999999999999", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := parseRetryAfter(tc.v, now); got != tc.want {
				t.Fatalf("parseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
			}
		})
	}
}

// FuzzParseRetryAfter holds parseRetryAfter to three properties: it never
// reports a negative delay; an all-digit value is min(n s, the longest
// Duration), computed with math/big; and a value http.ParseTime accepts is
// max(0, t-now).
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, v := range []string{
		"", "0", "3", "  7  ", "-5", "+5", "1.5", "soon", "007",
		"9223372036", "9223372037", "18446744074", "99999999999999999999", "-99999999999999999999",
		now.Add(90 * time.Second).Format(http.TimeFormat), now.Add(-time.Minute).Format(http.TimeFormat),
		"Sunday, 06-Nov-94 08:49:37 GMT", "Sun Nov  6 08:49:37 1994", "Fri, 31 Dec 9999 23:59:59 GMT",
	} {
		f.Add(v)
	}
	longest := big.NewInt(math.MaxInt64)
	f.Fuzz(func(t *testing.T, v string) {
		got := parseRetryAfter(v, now)
		if got < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, negative", v, got)
		}
		s := strings.TrimSpace(v)
		if s != "" && strings.Trim(s, "0123456789") == "" {
			n, _ := new(big.Int).SetString(s, 10)
			if n.Mul(n, big.NewInt(int64(time.Second))).Cmp(longest) > 0 {
				n = longest
			}
			if want := time.Duration(n.Int64()); got != want {
				t.Fatalf("parseRetryAfter(%q) = %v, want %v", v, got, want)
			}
		}
		if at, err := http.ParseTime(s); err == nil {
			if want := max(0, at.Sub(now)); got != want {
				t.Fatalf("parseRetryAfter(%q) = %v, want %v (date %v)", v, got, want, at)
			}
		}
	})
}

// TestRetryDelayHonorsRetryAfter: the delay is the half-jittered backoff,
// within [d/2, d], unless the server's Retry-After asks for longer; that
// ask is the floor, up to CapBackoff.
func TestRetryDelayHonorsRetryAfter(t *testing.T) {
	pol := RetryPolicy{
		Attempts:    3,
		BaseBackoff: 10 * time.Millisecond,
		CapBackoff:  2 * time.Second,
	}
	cases := []struct {
		name   string
		err    error
		n      int
		lo, hi time.Duration
	}{
		{"no-status-error", errors.New("conn reset"), 1, 5 * time.Millisecond, 10 * time.Millisecond},
		{"status-without-retry-after", &StatusError{Code: 503}, 1, 5 * time.Millisecond, 10 * time.Millisecond},
		{"retry-after-stretches", &StatusError{Code: 503, RetryAfter: time.Second}, 1, time.Second, time.Second},
		{"retry-after-below-backoff", &StatusError{Code: 503, RetryAfter: time.Millisecond}, 2, 10 * time.Millisecond, 20 * time.Millisecond},
		{"retry-after-capped", &StatusError{Code: 503, RetryAfter: time.Minute}, 1, 2 * time.Second, 2 * time.Second},
		{"wrapped-status-error", fmt.Errorf("attempt failed: %w",
			&StatusError{Code: 503, RetryAfter: 500 * time.Millisecond}), 1, 500 * time.Millisecond, 500 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for range 100 {
				if got := retryDelay(pol, tc.n, tc.err); got < tc.lo || got > tc.hi {
					t.Fatalf("retryDelay = %v, want within [%v, %v]", got, tc.lo, tc.hi)
				}
			}
		})
	}
}

// TestRetryAfterCapturedFromShed drives a real gateway shed through the
// engine: with the admission limit saturated, the 503 surfaced to the
// caller carries the server-advertised Retry-After.
func TestRetryAfterCapturedFromShed(t *testing.T) {
	e := newEnv(t, Options{Retry: RetryPolicy{Attempts: 1}})
	e.startServer(t, dpm1, httpserv.Options{
		Limits: httpserv.Limits{
			MaxInFlight: 1,
			QueueDepth:  1,
			QueueWait:   5 * time.Millisecond,
		},
	})
	ctx := context.Background()
	if err := e.client.Put(ctx, dpm1, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}

	// Park two uploads whose bodies the test keeps open: one holds the
	// single in-flight slot, one fills the queue, so the probe below must
	// be shed.
	for i := 0; i < 2; i++ {
		c, err := e.net.Dial(dpm1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		fmt.Fprintf(c, "PUT /slow-%d HTTP/1.1\r\nHost: %s\r\nContent-Length: 2\r\n\r\nx", i, dpm1)
	}
	deadline := time.Now().Add(2 * time.Second)
	for snapCounter(e.srvs[dpm1], "inflight")+snapCounter(e.srvs[dpm1], "admission_queue") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("parked requests never occupied the gateway")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := e.client.Get(ctx, dpm1, "/f")
	if err == nil {
		t.Fatal("Get succeeded past a saturated gateway")
	}
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.Code != 503 {
		t.Fatalf("code = %d, want 503", se.Code)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0 from the shed's header", se.RetryAfter)
	}
}

func snapCounter(s *httpserv.Server, name string) int64 {
	for _, c := range s.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
