// Package s3 implements AWS Signature Version 4 request signing and
// verification. The paper motivates HTTP data access precisely because it
// unlocks "interactions with commercial cloud storage providers like
// Amazon Simple Storage Service" (§1); the real davix grew S3 signature
// support for that reason, and this package provides the same capability
// for the Go client and the test server.
//
// The implementation follows the canonical-request / string-to-sign /
// signing-key derivation of the SigV4 specification, using the
// UNSIGNED-PAYLOAD content hash convention for streaming bodies.
package s3

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"godavix/internal/wire"
)

// UnsignedPayload is the x-amz-content-sha256 value for streaming bodies.
const UnsignedPayload = "UNSIGNED-PAYLOAD"

// TimeFormat is the x-amz-date format (ISO 8601 basic).
const TimeFormat = "20060102T150405Z"

// Credentials identify an S3 principal.
type Credentials struct {
	// AccessKey is the public key id.
	AccessKey string
	// SecretKey is the signing secret.
	SecretKey string
	// Region scopes the signature (default "us-east-1").
	Region string
	// Service scopes the signature (default "s3").
	Service string
}

func (c Credentials) withDefaults() Credentials {
	if c.Region == "" {
		c.Region = "us-east-1"
	}
	if c.Service == "" {
		c.Service = "s3"
	}
	return c
}

// hmacSHA256 computes HMAC-SHA256(key, data).
func hmacSHA256(key, data []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(data)
	return h.Sum(nil)
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// SigningKey derives the date/region/service-scoped signing key.
func SigningKey(secret, date, region, service string) []byte {
	kDate := hmacSHA256([]byte("AWS4"+secret), []byte(date))
	kRegion := hmacSHA256(kDate, []byte(region))
	kService := hmacSHA256(kRegion, []byte(service))
	return hmacSHA256(kService, []byte("aws4_request"))
}

// signedHeaderNames are the headers included in every signature.
var signedHeaderNames = []string{"host", "x-amz-content-sha256", "x-amz-date"}

// canonicalQuery renders the query string in canonical (sorted) form.
func canonicalQuery(rawQuery string) string {
	if rawQuery == "" {
		return ""
	}
	parts := strings.Split(rawQuery, "&")
	sort.Strings(parts)
	for i, p := range parts {
		if !strings.Contains(p, "=") {
			parts[i] = p + "="
		}
	}
	return strings.Join(parts, "&")
}

// canonicalRequest builds the SigV4 canonical request string.
func canonicalRequest(method, path, host, date, payloadHash string) string {
	p := path
	rawQuery := ""
	if i := strings.IndexByte(p, '?'); i >= 0 {
		p, rawQuery = p[:i], p[i+1:]
	}
	if p == "" {
		p = "/"
	}
	var b strings.Builder
	b.WriteString(method)
	b.WriteByte('\n')
	b.WriteString(p)
	b.WriteByte('\n')
	b.WriteString(canonicalQuery(rawQuery))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "host:%s\n", host)
	fmt.Fprintf(&b, "x-amz-content-sha256:%s\n", payloadHash)
	fmt.Fprintf(&b, "x-amz-date:%s\n", date)
	b.WriteByte('\n')
	b.WriteString(strings.Join(signedHeaderNames, ";"))
	b.WriteByte('\n')
	b.WriteString(payloadHash)
	return b.String()
}

// Sign attaches SigV4 authentication headers to req: X-Amz-Date,
// X-Amz-Content-Sha256 (UNSIGNED-PAYLOAD) and Authorization.
func Sign(req *wire.Request, creds Credentials, now time.Time) {
	creds = creds.withDefaults()
	amzDate := now.UTC().Format(TimeFormat)
	shortDate := amzDate[:8]
	payloadHash := UnsignedPayload

	req.Header.Set("X-Amz-Date", amzDate)
	req.Header.Set("X-Amz-Content-Sha256", payloadHash)

	creq := canonicalRequest(req.Method, req.Path, req.Host, amzDate, payloadHash)
	scope := fmt.Sprintf("%s/%s/%s/aws4_request", shortDate, creds.Region, creds.Service)
	sts := fmt.Sprintf("AWS4-HMAC-SHA256\n%s\n%s\n%s", amzDate, scope, sha256Hex([]byte(creq)))
	key := SigningKey(creds.SecretKey, shortDate, creds.Region, creds.Service)
	sig := hex.EncodeToString(hmacSHA256(key, []byte(sts)))

	req.Header.Set("Authorization", fmt.Sprintf(
		"AWS4-HMAC-SHA256 Credential=%s/%s, SignedHeaders=%s, Signature=%s",
		creds.AccessKey, scope, strings.Join(signedHeaderNames, ";"), sig))
}

// VerifyRequest checks an inbound request's SigV4 signature.
// secretFor maps an access key to its secret ("" = unknown key).
// maxSkew bounds the acceptable clock difference (0 selects 15 minutes,
// the S3 default).
func VerifyRequest(method, path, host, authorization, amzDate, payloadHash string,
	secretFor func(accessKey string) string, now time.Time, maxSkew time.Duration) error {
	if maxSkew == 0 {
		maxSkew = 15 * time.Minute
	}
	const prefix = "AWS4-HMAC-SHA256 "
	if !strings.HasPrefix(authorization, prefix) {
		return fmt.Errorf("s3: not a SigV4 authorization header")
	}
	fields := map[string]string{}
	for _, part := range strings.Split(authorization[len(prefix):], ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("s3: malformed authorization field %q", part)
		}
		fields[k] = v
	}
	credParts := strings.Split(fields["Credential"], "/")
	if len(credParts) != 5 || credParts[4] != "aws4_request" {
		return fmt.Errorf("s3: malformed credential scope %q", fields["Credential"])
	}
	accessKey, shortDate, region, service := credParts[0], credParts[1], credParts[2], credParts[3]

	secret := secretFor(accessKey)
	if secret == "" {
		return fmt.Errorf("s3: unknown access key %q", accessKey)
	}
	reqTime, err := time.Parse(TimeFormat, amzDate)
	if err != nil {
		return fmt.Errorf("s3: bad x-amz-date %q", amzDate)
	}
	if skew := now.Sub(reqTime); skew > maxSkew || skew < -maxSkew {
		return fmt.Errorf("s3: request time skew %v exceeds %v", skew, maxSkew)
	}
	if !strings.HasPrefix(amzDate, shortDate) {
		return fmt.Errorf("s3: date scope mismatch")
	}

	creq := canonicalRequest(method, path, host, amzDate, payloadHash)
	scope := fmt.Sprintf("%s/%s/%s/aws4_request", shortDate, region, service)
	sts := fmt.Sprintf("AWS4-HMAC-SHA256\n%s\n%s\n%s", amzDate, scope, sha256Hex([]byte(creq)))
	key := SigningKey(secret, shortDate, region, service)
	want := hex.EncodeToString(hmacSHA256(key, []byte(sts)))

	if !hmac.Equal([]byte(want), []byte(fields["Signature"])) {
		return fmt.Errorf("s3: signature mismatch")
	}
	return nil
}
