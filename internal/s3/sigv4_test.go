package s3

import (
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"godavix/internal/wire"
)

// TestSigningKeyVector checks the published AWS SigV4 key-derivation test
// vector (secret wJalrXUtnFEMI/K7MDENG+bPxRfiCYEXAMPLEKEY, 20150830,
// us-east-1, iam).
func TestSigningKeyVector(t *testing.T) {
	key := SigningKey("wJalrXUtnFEMI/K7MDENG+bPxRfiCYEXAMPLEKEY", "20150830", "us-east-1", "iam")
	want := "c4afb1cc5771d871763a393e44b703571b55cc28424d1a5e86da6ed3c154a4b9"
	if got := hex.EncodeToString(key); got != want {
		t.Fatalf("signing key = %s, want %s", got, want)
	}
}

func testCreds() Credentials {
	return Credentials{
		AccessKey: "AKIDEXAMPLE",
		SecretKey: "wJalrXUtnFEMI/K7MDENG+bPxRfiCYEXAMPLEKEY",
		Region:    "eu-west-1",
	}
}

func secretFor(key string) string {
	if key == "AKIDEXAMPLE" {
		return "wJalrXUtnFEMI/K7MDENG+bPxRfiCYEXAMPLEKEY"
	}
	return ""
}

func TestSignVerifyRoundTrip(t *testing.T) {
	now := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	req := wire.NewRequest("GET", "bucket.s3:80", "/store/f.rnt?versionId=3&acl")
	Sign(req, testCreds(), now)

	if req.Header.Get("X-Amz-Date") == "" || req.Header.Get("Authorization") == "" {
		t.Fatalf("headers = %+v", req.Header)
	}
	err := VerifyRequest("GET", req.Path, req.Host,
		req.Header.Get("Authorization"), req.Header.Get("X-Amz-Date"),
		req.Header.Get("X-Amz-Content-Sha256"), secretFor, now.Add(time.Minute), 0)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	now := time.Date(2014, 9, 1, 12, 0, 0, 0, time.UTC)
	req := wire.NewRequest("GET", "h:80", "/obj")
	Sign(req, testCreds(), now)
	auth := req.Header.Get("Authorization")
	date := req.Header.Get("X-Amz-Date")
	// Flip the low bit of the signature's last hex digit: a different
	// digit whatever the signature is.
	const hexDigits = "0123456789abcdef"
	last := strings.IndexByte(hexDigits, auth[len(auth)-1])
	if last < 0 {
		t.Fatalf("Authorization does not end in a hex digit: %q", auth)
	}
	badSig := auth[:len(auth)-1] + hexDigits[last^1:last^1+1]

	cases := []struct {
		name                     string
		method, path, host, a, d string
	}{
		{"method", "PUT", "/obj", "h:80", auth, date},
		{"path", "GET", "/other", "h:80", auth, date},
		{"host", "GET", "/obj", "evil:80", auth, date},
		{"sig", "GET", "/obj", "h:80", badSig, date},
	}
	for _, c := range cases {
		err := VerifyRequest(c.method, c.path, c.host, c.a, c.d, UnsignedPayload, secretFor, now, 0)
		if err == nil {
			t.Errorf("%s tampering accepted", c.name)
		}
	}
}

func TestVerifyRejectsClockSkew(t *testing.T) {
	now := time.Now().UTC()
	req := wire.NewRequest("GET", "h:80", "/obj")
	Sign(req, testCreds(), now)
	err := VerifyRequest("GET", "/obj", "h:80",
		req.Header.Get("Authorization"), req.Header.Get("X-Amz-Date"),
		UnsignedPayload, secretFor, now.Add(time.Hour), 0)
	if err == nil || !strings.Contains(err.Error(), "skew") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsUnknownKey(t *testing.T) {
	now := time.Now().UTC()
	creds := testCreds()
	creds.AccessKey = "AKIDUNKNOWN"
	req := wire.NewRequest("GET", "h:80", "/obj")
	Sign(req, creds, now)
	err := VerifyRequest("GET", "/obj", "h:80",
		req.Header.Get("Authorization"), req.Header.Get("X-Amz-Date"),
		UnsignedPayload, secretFor, now, 0)
	if err == nil || !strings.Contains(err.Error(), "unknown access key") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsGarbageHeader(t *testing.T) {
	now := time.Now().UTC()
	for _, a := range []string{"", "Bearer x", "AWS4-HMAC-SHA256 nonsense"} {
		if err := VerifyRequest("GET", "/", "h:80", a, now.Format(TimeFormat), UnsignedPayload, secretFor, now, 0); err == nil {
			t.Errorf("accepted %q", a)
		}
	}
}

func TestCanonicalQuerySorted(t *testing.T) {
	if got := canonicalQuery("b=2&a=1&flag"); got != "a=1&b=2&flag=" {
		t.Fatalf("canonical query = %q", got)
	}
	if got := canonicalQuery(""); got != "" {
		t.Fatalf("empty query = %q", got)
	}
}

// TestSignVerifyProperty: any method/path/time combination round-trips.
func TestSignVerifyProperty(t *testing.T) {
	methods := []string{"GET", "PUT", "DELETE", "HEAD"}
	prop := func(pathSeed uint16, methodSeed uint8, offset int16) bool {
		now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(offset) * time.Second)
		method := methods[int(methodSeed)%len(methods)]
		path := "/obj" + strings.Repeat("x", int(pathSeed%32))
		req := wire.NewRequest(method, "h:80", path)
		Sign(req, testCreds(), now)
		return VerifyRequest(method, path, "h:80",
			req.Header.Get("Authorization"), req.Header.Get("X-Amz-Date"),
			UnsignedPayload, secretFor, now, 0) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
