package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestServerTraceNilSafe(t *testing.T) {
	var tr *ServerTrace
	tr.EmitAdmitted("c", true, time.Millisecond)
	tr.EmitShed("c", "capacity", time.Second)
	tr.EmitSlowClient("c", "read-stall")
	tr.EmitPartialReaped("/p", time.Minute)

	partial := &ServerTrace{}
	partial.EmitAdmitted("c", false, 0)
	partial.EmitShed("c", "capacity", 0)
}

func TestSlogServerTrace(t *testing.T) {
	if SlogServerTrace(nil) != nil {
		t.Fatal("SlogServerTrace(nil) != nil")
	}
	var buf bytes.Buffer
	tr := SlogServerTrace(slog.New(slog.NewTextHandler(&buf, nil)))
	tr.EmitShed("client-1", "capacity", 2*time.Second)
	tr.EmitSlowClient("client-2", "read-stall")
	tr.EmitPartialReaped("/store/f", time.Minute)
	out := buf.String()
	for _, want := range []string{"gateway shed", "capacity", "client-1",
		"gateway slow client killed", "read-stall",
		"gateway partial upload reaped", "/store/f"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
}
