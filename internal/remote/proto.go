// Package remote carries the thrifty barrier across process and network
// boundaries: a framed length-prefixed protocol, a fault-tolerant server
// (cmd/thriftyd) that runs the §3.2 BIT prediction per (client, barrier)
// and answers each registration with a sleep directive — the paper's
// Table 3 tier decision carried over the wire — and the lease, reconnect
// and broken-epoch machinery that makes the §3.3 failure semantics
// survive a real network.
//
// The protocol is designed idempotent end to end, because the transport
// is allowed to drop, delay, duplicate and tear frames
// (internal/fault.FaultConn injects exactly those): registrations carry a
// per-attempt nonce plus a (client ID, epoch, generation) resume token so
// a retransmitted or re-sent register binds to the same arrival instead
// of double-counting;
// directives and release frames are replayed verbatim for a reconnecting
// client; and every frame a server emits for a given epoch is a pure
// function of protocol state, never of wall-clock, so the fault-free
// release frames are byte-identical across runs — the property the chaos
// suite pins.
package remote

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrame bounds a frame's payload so a torn or hostile length prefix
// cannot make a reader allocate unboundedly.
const MaxFrame = 64 << 10

// Frame types. The type byte is the first payload byte, after the 4-byte
// big-endian length prefix.
const (
	// FrameRegister (client → server) arrives at a barrier epoch, or —
	// with a non-zero epoch — resumes a previous arrival after a
	// reconnect.
	FrameRegister byte = iota + 1
	// FrameDirective (server → client) answers a registration: the
	// assigned (epoch, generation) resume token and the sleep directive.
	FrameDirective
	// FrameHeartbeat (client → server) renews the client's lease.
	FrameHeartbeat
	// FrameRelease (server → client) ends an epoch: completed, or broken
	// with a reason.
	FrameRelease
	// FrameAdvisory (server → client) is the stall watchdog's push: the
	// epoch has outlived its predicted interval and is still missing
	// arrivals.
	FrameAdvisory
	// FrameCancel (client → server) abandons an in-flight arrival,
	// breaking the epoch for every peer — the wire form of the
	// WaitContext cancellation contract.
	FrameCancel
	// FrameStatusReq (client → server) asks for the barrier table.
	FrameStatusReq
	// FrameStatus (server → client) answers with one BarrierStatus per
	// known barrier, sorted by name.
	FrameStatus
	// FrameError (server → client) reports a protocol-level rejection
	// (e.g. a parties mismatch). It never ends an epoch.
	FrameError
)

// Tier mirrors thrifty.Tier for the wire: how deeply the registered
// client may sleep before its next check — the Table 3 decision, made
// server-side from the predicted stall and shipped to the waiter.
const (
	TierSpin byte = iota
	TierYield
	TierTimedPark
	TierPark
)

// TierName renders a wire tier for logs and status output.
func TierName(t byte) string {
	switch t {
	case TierSpin:
		return "spin"
	case TierYield:
		return "yield"
	case TierTimedPark:
		return "timed-park"
	case TierPark:
		return "park"
	default:
		return fmt.Sprintf("tier(%d)", t)
	}
}

// WriteFrame writes one frame in exactly one Write call — the granularity
// contract internal/fault.FaultConn keys its per-frame verdicts on, and
// the reason a torn frame can only come from a deliberate mid-frame
// close.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("remote: frame of %d bytes exceeds MaxFrame %d", len(payload), MaxFrame)
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one length-prefixed frame. A truncated prefix or body
// (the mid-frame close) surfaces as io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("remote: empty frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("remote: frame of %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	return payload, nil
}

// enc is an appending big-endian field writer.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.b = binary.BigEndian.AppendUint64(e.b, uint64(v)) }
func (e *enc) str(s string) { e.u16(uint16(len(s))); e.b = append(e.b, s...) }

// dec is the matching error-latching reader: the first short field poisons
// every later read, so decoders check the error once at the end.
type dec struct {
	b   []byte
	err error
}

// newDec reads payload p's fields after its type byte; empty p is short.
func newDec(p []byte) *dec {
	if len(p) == 0 {
		return &dec{err: io.ErrUnexpectedEOF}
	}
	return &dec{b: p[1:]}
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = io.ErrUnexpectedEOF
	}
}

func (d *dec) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u16() uint16 {
	if d.err != nil || len(d.b) < 2 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) str() string {
	n := int(d.u16())
	if d.err != nil || len(d.b) < n {
		d.fail()
		return ""
	}
	v := string(d.b[:n])
	d.b = d.b[n:]
	return v
}

// done returns the latched error, also rejecting trailing garbage —
// duplicate-frame chaos must not let two concatenated payloads pass as
// one.
func (d *dec) done(kind string) error {
	if d.err != nil {
		return fmt.Errorf("remote: short %s frame", kind)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("remote: %d trailing bytes after %s frame", len(d.b), kind)
	}
	return nil
}

// Register is a client's arrival at (or resumption of) a barrier epoch.
type Register struct {
	ClientID string
	Barrier  string
	// Parties is the barrier width. The first registrant fixes it; a
	// later mismatch is answered with FrameError.
	Parties uint32
	// Nonce identifies this wait attempt: the client bumps it once per
	// logical Wait call and keeps it fixed across retransmits and
	// reconnects of that call. The server keys its double-count guard on
	// (ClientID, Nonce): a register whose nonce was already counted binds
	// to the existing arrival (epoch still open) or replays the outcome
	// of the epoch it was counted into (epoch ended) — it never counts
	// again. This is what makes registration safe under at-least-once
	// delivery, where the same frame may arrive twice straddling a
	// release.
	Nonce uint64
	// Epoch/Gen form the resume token. A fresh arrival sends Epoch 0 and
	// lets the server assign; a reconnect echoes the token from its
	// directive. Diagnostic alongside Nonce, which alone decides
	// idempotency.
	Epoch uint64
	Gen   uint64
}

// Encode renders the frame payload.
func (f *Register) Encode() []byte {
	e := &enc{b: make([]byte, 0, 1+2+len(f.ClientID)+2+len(f.Barrier)+4+16)}
	e.u8(FrameRegister)
	e.str(f.ClientID)
	e.str(f.Barrier)
	e.u32(f.Parties)
	e.u64(f.Nonce)
	e.u64(f.Epoch)
	e.u64(f.Gen)
	return e.b
}

// DecodeRegister parses a FrameRegister payload (type byte included).
func DecodeRegister(p []byte) (Register, error) {
	d := newDec(p)
	f := Register{
		ClientID: d.str(),
		Barrier:  d.str(),
		Parties:  d.u32(),
		Nonce:    d.u64(),
		Epoch:    d.u64(),
		Gen:      d.u64(),
	}
	return f, d.done("register")
}

// Directive is the server's answer to a registration: the resume token
// plus the sleep decision for this waiter.
type Directive struct {
	Barrier string
	Epoch   uint64
	Gen     uint64
	// Nonce echoes the register's attempt nonce, so a client that retried
	// across attempts can match the directive to the right Wait call.
	Nonce uint64
	// Tier is the wire tier (TierSpin..TierPark).
	Tier byte
	// Shed is non-zero when the server widened this directive under load:
	// the waiter was told to sleep deeper/longer than its prediction
	// alone would say, instead of being rejected.
	Shed byte
	// PredictedStallNanos is the server's stall prediction for this
	// (client, barrier): predicted release minus arrival time. Zero when
	// the site is still warming up.
	PredictedStallNanos int64
	// PollNanos is the re-check cadence: the client re-sends its
	// registration, in case the release frame was lost, once eight of
	// them (and at least 20ms) pass without the release.
	PollNanos int64
	// ParkNanos is the timed-park duration: how long the waiter may sleep
	// outright before re-checking (TierTimedPark), or the advisory
	// re-register deadline hint for TierPark.
	ParkNanos int64
}

// Encode renders the frame payload.
func (f *Directive) Encode() []byte {
	e := &enc{b: make([]byte, 0, 1+2+len(f.Barrier)+16+2+24)}
	e.u8(FrameDirective)
	e.str(f.Barrier)
	e.u64(f.Epoch)
	e.u64(f.Gen)
	e.u64(f.Nonce)
	e.u8(f.Tier)
	e.u8(f.Shed)
	e.i64(f.PredictedStallNanos)
	e.i64(f.PollNanos)
	e.i64(f.ParkNanos)
	return e.b
}

// DecodeDirective parses a FrameDirective payload.
func DecodeDirective(p []byte) (Directive, error) {
	d := newDec(p)
	f := Directive{
		Barrier:             d.str(),
		Epoch:               d.u64(),
		Gen:                 d.u64(),
		Nonce:               d.u64(),
		Tier:                d.u8(),
		Shed:                d.u8(),
		PredictedStallNanos: d.i64(),
		PollNanos:           d.i64(),
		ParkNanos:           d.i64(),
	}
	return f, d.done("directive")
}

// Heartbeat renews a client's lease. Seq is diagnostic (it lets a log
// correlate heartbeats across a reconnect); the server's lease logic uses
// only arrival time.
type Heartbeat struct {
	ClientID string
	Seq      uint64
}

// Encode renders the frame payload.
func (f *Heartbeat) Encode() []byte {
	e := &enc{b: make([]byte, 0, 1+2+len(f.ClientID)+8)}
	e.u8(FrameHeartbeat)
	e.str(f.ClientID)
	e.u64(f.Seq)
	return e.b
}

// DecodeHeartbeat parses a FrameHeartbeat payload.
func DecodeHeartbeat(p []byte) (Heartbeat, error) {
	d := newDec(p)
	f := Heartbeat{ClientID: d.str(), Seq: d.u64()}
	return f, d.done("heartbeat")
}

// Release ends an epoch. Completed epochs carry Broken false, Arrived ==
// parties and an empty Reason; broken epochs carry the break reason
// (lease lost, cancelled, reset). No field depends on wall-clock: a
// fault-free run's release frames are byte-identical across runs, seeds
// and worker widths, which the chaos suite pins.
type Release struct {
	Barrier string
	Epoch   uint64
	Gen     uint64
	Broken  bool
	Arrived uint32
	Reason  string
}

// Encode renders the frame payload.
func (f *Release) Encode() []byte {
	e := &enc{b: make([]byte, 0, 1+2+len(f.Barrier)+16+1+4+2+len(f.Reason))}
	e.u8(FrameRelease)
	e.str(f.Barrier)
	e.u64(f.Epoch)
	e.u64(f.Gen)
	if f.Broken {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u32(f.Arrived)
	e.str(f.Reason)
	return e.b
}

// DecodeRelease parses a FrameRelease payload.
func DecodeRelease(p []byte) (Release, error) {
	d := newDec(p)
	f := Release{Barrier: d.str(), Epoch: d.u64(), Gen: d.u64()}
	f.Broken = d.u8() != 0
	f.Arrived = d.u32()
	f.Reason = d.str()
	return f, d.done("release")
}

// Advisory is the stall watchdog's push to an epoch's waiters: the
// rendezvous has outlived its predicted interval and Parties-Arrived
// participants are still missing. Diagnostic only — it never ends the
// epoch (a deserter may still arrive; the lease is what gives up on it).
type Advisory struct {
	Barrier string
	Epoch   uint64
	Gen     uint64
	Arrived uint32
	Parties uint32
}

// Encode renders the frame payload.
func (f *Advisory) Encode() []byte {
	e := &enc{b: make([]byte, 0, 1+2+len(f.Barrier)+16+8)}
	e.u8(FrameAdvisory)
	e.str(f.Barrier)
	e.u64(f.Epoch)
	e.u64(f.Gen)
	e.u32(f.Arrived)
	e.u32(f.Parties)
	return e.b
}

// DecodeAdvisory parses a FrameAdvisory payload.
func DecodeAdvisory(p []byte) (Advisory, error) {
	d := newDec(p)
	f := Advisory{
		Barrier: d.str(), Epoch: d.u64(), Gen: d.u64(),
		Arrived: d.u32(), Parties: d.u32(),
	}
	return f, d.done("advisory")
}

// Cancel abandons an in-flight arrival: the wire form of a WaitContext
// cancellation. The epoch it names breaks for every peer.
type Cancel struct {
	ClientID string
	Barrier  string
	// Nonce names the wait attempt being abandoned — the same idempotency
	// key the register carried, so a cancel matches even when the client
	// never learned its epoch (its directive was lost in flight).
	Nonce  uint64
	Epoch  uint64
	Gen    uint64
	Reason string
}

// Encode renders the frame payload.
func (f *Cancel) Encode() []byte {
	e := &enc{b: make([]byte, 0, 1+2+len(f.ClientID)+2+len(f.Barrier)+16+2+len(f.Reason))}
	e.u8(FrameCancel)
	e.str(f.ClientID)
	e.str(f.Barrier)
	e.u64(f.Nonce)
	e.u64(f.Epoch)
	e.u64(f.Gen)
	e.str(f.Reason)
	return e.b
}

// DecodeCancel parses a FrameCancel payload.
func DecodeCancel(p []byte) (Cancel, error) {
	d := newDec(p)
	f := Cancel{
		ClientID: d.str(), Barrier: d.str(), Nonce: d.u64(),
		Epoch: d.u64(), Gen: d.u64(), Reason: d.str(),
	}
	return f, d.done("cancel")
}

// BarrierStatus is one barrier's row in a status response: the same
// (generation, arrived, broken) tuple thrifty.Barrier.Snapshot decodes
// from the in-process packed state word, plus the epoch counter the wire
// protocol adds.
type BarrierStatus struct {
	Name    string
	Epoch   uint64
	Gen     uint64
	Arrived uint32
	Parties uint32
	// Broken is true only in the window between a break and its automatic
	// re-arm; the server re-arms immediately, so status normally shows
	// false.
	Broken bool
}

// EncodeStatusReq renders a status request payload.
func EncodeStatusReq() []byte { return []byte{FrameStatusReq} }

// DecodeStatusReq parses a FrameStatusReq payload. The request carries no
// fields, so decoding is pure validation: any trailing bytes mean a torn
// or concatenated frame and the request must be rejected, not served.
func DecodeStatusReq(p []byte) error {
	d := newDec(p)
	return d.done("status request")
}

// EncodeStatus renders a status response payload.
func EncodeStatus(rows []BarrierStatus) []byte {
	e := &enc{b: []byte{FrameStatus}}
	e.u32(uint32(len(rows)))
	for _, r := range rows {
		e.str(r.Name)
		e.u64(r.Epoch)
		e.u64(r.Gen)
		e.u32(r.Arrived)
		e.u32(r.Parties)
		if r.Broken {
			e.u8(1)
		} else {
			e.u8(0)
		}
	}
	return e.b
}

// DecodeStatus parses a FrameStatus payload.
func DecodeStatus(p []byte) ([]BarrierStatus, error) {
	d := newDec(p)
	n := d.u32()
	if d.err == nil && int(n) > MaxFrame/8 {
		return nil, fmt.Errorf("remote: status frame claims %d rows", n)
	}
	rows := make([]BarrierStatus, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		r := BarrierStatus{
			Name: d.str(), Epoch: d.u64(), Gen: d.u64(),
			Arrived: d.u32(), Parties: d.u32(),
		}
		r.Broken = d.u8() != 0
		rows = append(rows, r)
	}
	return rows, d.done("status")
}

// Error codes for FrameError.
const (
	// ErrCodeParties: the register's Parties disagrees with the barrier's
	// established width.
	ErrCodeParties byte = iota + 1
	// ErrCodeBadFrame: the server could not decode a frame from this
	// connection.
	ErrCodeBadFrame
)

// ErrorFrame is a protocol-level rejection. It never breaks an epoch.
// Barrier names the registration being rejected when the error is
// barrier-scoped (a parties mismatch), empty otherwise.
type ErrorFrame struct {
	Code    byte
	Barrier string
	Msg     string
}

// Encode renders the frame payload.
func (f *ErrorFrame) Encode() []byte {
	e := &enc{b: make([]byte, 0, 2+2+len(f.Barrier)+2+len(f.Msg))}
	e.u8(FrameError)
	e.u8(f.Code)
	e.str(f.Barrier)
	e.str(f.Msg)
	return e.b
}

// DecodeError parses a FrameError payload.
func DecodeError(p []byte) (ErrorFrame, error) {
	d := newDec(p)
	f := ErrorFrame{Code: d.u8(), Barrier: d.str(), Msg: d.str()}
	return f, d.done("error")
}
