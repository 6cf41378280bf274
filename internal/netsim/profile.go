// Package netsim provides an in-process simulated network used to reproduce
// the paper's three network classes (LAN, PAN-European, WAN) without real
// geography. Connections created through a Network behave like TCP streams
// with configurable round-trip time, per-connection bandwidth, a TCP
// slow-start model, and connection-handshake cost. Faults (host outages,
// connection aborts) can be injected to exercise the Metalink failover paths.
//
// Latencies are scaled down from the paper's real-world values (milliseconds
// instead of tens/hundreds of milliseconds) so that benchmarks complete
// quickly; every protocol round trip is still paid, so the relative shapes
// of the paper's results are preserved.
//
// The waits are real time, so the Go runtime sets a floor under them: when
// no goroutine is runnable, a wait shorter than about 1 ms rounds up to the
// runtime's millisecond netpoll sleep. A 1-byte ping-pong over an idle
// LAN() link (0.2 ms RTT) takes about 2.2 ms per round trip, as it does at
// a 2 ms RTT; a serial request on LAN pays that floor, not the configured
// RTT. WAN's 12 ms RTT is well above it.
package netsim

import "time"

// Profile describes the link characteristics applied to each simulated
// connection. The zero value is an ideal network: no latency, no bandwidth
// limit, free handshakes.
type Profile struct {
	// Name identifies the profile in reports ("LAN", "PAN", "WAN", ...).
	Name string

	// RTT is the round-trip time between the two endpoints. One half is
	// charged to every segment in each direction; Dial additionally pays
	// HandshakeRTTs full round trips.
	RTT time.Duration

	// Bandwidth is the per-connection link rate in bytes per second.
	// Zero means unlimited.
	Bandwidth int64

	// HandshakeRTTs is the number of round trips charged when establishing
	// a new connection (TCP SYN/SYN-ACK = 1). Zero means free dials.
	HandshakeRTTs int

	// SlowStart enables the TCP slow-start model: a fresh connection may
	// only have InitCwnd bytes in flight per RTT, doubling every window
	// until MaxCwnd. Reusing a warmed-up connection (the paper's session
	// recycling) avoids paying these extra windows again.
	SlowStart bool

	// InitCwnd is the initial congestion window in bytes (default 14600,
	// i.e. 10 MSS as in modern Linux).
	InitCwnd int64

	// MaxCwnd caps congestion-window growth, conventionally near the
	// bandwidth-delay product. Zero derives it from Bandwidth*RTT, or
	// disables the cap when Bandwidth is unlimited.
	MaxCwnd int64
}

// Paper §3 network classes, scaled 1:25 from the quoted upper bounds
// (5 ms, 50 ms, 300 ms) so a full Figure-4 run takes seconds, not hours.
// The 1 Gb/s link of the paper's testbed is kept as-is.
const latencyScale = 25

// LAN models the paper's "CERN<->CERN" gigabit Ethernet class (<5 ms RTT).
func LAN() Profile {
	return Profile{
		Name:          "LAN",
		RTT:           5 * time.Millisecond / latencyScale,
		Bandwidth:     125 << 20, // ~1 Gb/s
		HandshakeRTTs: 1,
		SlowStart:     true,
		InitCwnd:      14600,
	}
}

// PAN models the paper's "UK(GLAS)<->CERN" GEANT class (<50 ms RTT).
// Effective per-stream bandwidth on the shared GEANT path is below the
// local gigabit link.
func PAN() Profile {
	return Profile{
		Name:          "PAN",
		RTT:           50 * time.Millisecond / latencyScale,
		Bandwidth:     60 << 20,
		HandshakeRTTs: 1,
		SlowStart:     true,
		InitCwnd:      14600,
	}
}

// WAN models the paper's "USA(BNL)<->CERN" transatlantic class (<300 ms
// RTT). Per-stream bandwidth on the shared transatlantic path is far below
// the local link, which is why the paper's WAN rows are the slowest for
// both protocols.
func WAN() Profile {
	return Profile{
		Name:          "WAN",
		RTT:           300 * time.Millisecond / latencyScale,
		Bandwidth:     32 << 20,
		HandshakeRTTs: 1,
		SlowStart:     true,
		InitCwnd:      14600,
	}
}

// Ideal is a zero-cost network, useful in unit tests that assert semantics
// rather than timing.
func Ideal() Profile { return Profile{Name: "ideal"} }

// effMaxCwnd resolves the congestion-window cap.
func (p Profile) effMaxCwnd() int64 {
	if p.MaxCwnd > 0 {
		return p.MaxCwnd
	}
	if p.Bandwidth > 0 && p.RTT > 0 {
		bdp := int64(float64(p.Bandwidth) * p.RTT.Seconds())
		if bdp < p.effInitCwnd() {
			bdp = p.effInitCwnd()
		}
		return bdp
	}
	return 0 // unlimited
}

func (p Profile) effInitCwnd() int64 {
	if p.InitCwnd > 0 {
		return p.InitCwnd
	}
	return 14600
}
