package remote

import (
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thriftybarrier/internal/predict"
	"thriftybarrier/internal/registry"
	"thriftybarrier/internal/sim"
)

// Options configures a Server. The zero value of each field selects the
// default.
type Options struct {
	// Lease is how long a client may go silent (no register, heartbeat,
	// cancel or status frame) before its in-flight arrivals are declared
	// dead and their epochs broken for every peer — the wire form of the
	// WaitContext cancellation contract. A reconnecting client that
	// re-registers within the lease resumes its arrival; one that misses
	// it finds a broken release waiting. Default 5s.
	Lease time.Duration

	// The remote tier table: the largest predicted stall each wait tier
	// covers, scaled up from the in-process thresholds because a remote
	// waiter's exit latency includes a network round trip. Defaults:
	// spin <= 1ms, yield <= 10ms, timed park <= 250ms, park beyond.
	SpinThreshold, YieldThreshold, TimedParkThreshold time.Duration
	// ParkMargin is how long before the predicted release a timed-parked
	// client should wake to residual-poll. Default 5ms.
	ParkMargin time.Duration
	// MinPoll/MaxPoll clamp the re-check cadence shipped in directives.
	// Defaults 200µs and 20ms.
	MinPoll, MaxPoll time.Duration

	// Predict configures the per-barrier prediction table (§3.2 BIT
	// machinery: entry 0 is the barrier interval, one entry per client is
	// that client's arrival-to-release stall). Default last-value.
	Predict predict.Config

	// MaxEpochs is the open-epoch watermark for graceful degradation:
	// when more epochs are in flight server-wide, new directives are
	// widened (predicted stalls multiplied by ShedFactor, tier floored at
	// timed park) instead of registrations being rejected — the server
	// sheds wake-up load, never correctness. 0 disables shedding.
	MaxEpochs int
	// ShedFactor is the widening multiplier. Default 4.
	ShedFactor float64

	// FanoutRadix shards the release broadcast: arrivals are grouped into
	// leaves of this width (registration order) and each leaf's frames
	// are written by one goroutine — the wire form of the sharded
	// leaf-broadcast release. Default 8.
	FanoutRadix int

	// StallMultiple × the predicted barrier interval (floored at
	// StallFloor) is the per-epoch stall watchdog deadline. An epoch
	// still open past it fires OnStall and pushes an advisory frame to
	// every connected waiter. Diagnostic only: the lease, not the
	// watchdog, is what gives up on a deserter. Defaults 8 and 2s.
	StallMultiple float64
	StallFloor    time.Duration
	// OnStall, when non-nil, receives watchdog reports. It runs on the
	// watchdog timer's goroutine and must not call back into the server.
	OnStall func(StallEvent)

	// HistoryDepth is how many ended epochs per barrier stay replayable
	// for reconnecting clients. Default 64.
	HistoryDepth int

	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
	// Logf, when non-nil, receives diagnostic logs.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Lease == 0 {
		o.Lease = 5 * time.Second
	}
	if o.SpinThreshold == 0 {
		o.SpinThreshold = time.Millisecond
	}
	if o.YieldThreshold == 0 {
		o.YieldThreshold = 10 * time.Millisecond
	}
	if o.TimedParkThreshold == 0 {
		o.TimedParkThreshold = 250 * time.Millisecond
	}
	if o.ParkMargin == 0 {
		o.ParkMargin = 5 * time.Millisecond
	}
	if o.MinPoll == 0 {
		o.MinPoll = 200 * time.Microsecond
	}
	if o.MaxPoll == 0 {
		o.MaxPoll = 20 * time.Millisecond
	}
	if o.Predict == (predict.Config{}) {
		o.Predict = predict.DefaultConfig()
	}
	if o.ShedFactor == 0 {
		o.ShedFactor = 4
	}
	if o.FanoutRadix == 0 {
		o.FanoutRadix = 8
	}
	if o.StallMultiple == 0 {
		o.StallMultiple = 8
	}
	if o.StallFloor == 0 {
		o.StallFloor = 2 * time.Second
	}
	if o.HistoryDepth == 0 {
		o.HistoryDepth = 64
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// StallEvent is the watchdog's report of an epoch that outlived its
// predicted interval — the server-side OnStall mirror of
// thrifty.StallInfo.
type StallEvent struct {
	Barrier      string
	Epoch, Gen   uint64
	Arrived      int
	Parties      int
	Waited       time.Duration
	PredictedBIT time.Duration
}

// Stats is a snapshot of server activity.
type Stats struct {
	Registrations    uint64 // fresh arrivals counted
	DupRegistrations uint64 // idempotent re-registers bound to an existing arrival
	Replays          uint64 // ended epochs replayed from history
	Releases         uint64 // epochs completed
	Breaks           uint64 // epochs broken (all causes)
	LeaseBreaks      uint64 // … by lease expiry
	CancelBreaks     uint64 // … by client cancellation
	Stalls           uint64 // watchdog firings
	Shed             uint64 // directives widened under load
	BadFrames        uint64 // undecodable frames received
	OpenEpochs       int64  // epochs currently holding waiters
	Barriers         int    // distinct barrier names seen
}

// registryShards sizes the barrier registry's write sharding: lookups
// are lock-free regardless, so this only bounds creation contention.
const registryShards = 16

// Server is the thriftyd core: a registry of named barriers — lock-free
// lookup on every frame, one mutex per barrier instead of a map-wide
// shard lock — each running per-(client, barrier) BIT prediction and
// answering arrivals with sleep directives, with lease-based failure
// detection and broken-epoch fan-out. Safe for concurrent use; serve it
// on any number of listeners.
type Server struct {
	opts     Options
	barriers *registry.Registry[*barrierState]

	clientMu sync.Mutex
	clients  map[string]time.Time // clientID → last frame seen

	connMu    sync.Mutex
	sessions  map[*session]struct{}
	listeners map[net.Listener]struct{}

	closed    atomic.Bool
	done      chan struct{}
	wg        sync.WaitGroup
	leaseOnce sync.Once

	openEpochs atomic.Int64

	registrations, dupRegistrations, replays atomic.Uint64
	releases, breaks, leaseBreaks            atomic.Uint64
	cancelBreaks, stalls, shed, badFrames    atomic.Uint64
}

// NewServer builds a server. It panics on an invalid predictor config
// (mirroring predict.NewTable).
func NewServer(opts Options) *Server {
	opts.fill()
	return &Server{
		opts:      opts,
		barriers:  registry.New[*barrierState](registryShards),
		clients:   make(map[string]time.Time),
		sessions:  make(map[*session]struct{}),
		listeners: make(map[net.Listener]struct{}),
		done:      make(chan struct{}),
	}
}

// nonceRec remembers which epoch a client's wait attempt (nonce) was
// counted into, so a retransmitted or re-sent register — fresh connection
// or duplicated frame — binds to that same arrival instead of
// double-counting into whatever epoch is open by then.
type nonceRec struct {
	nonce uint64
	epoch uint64
}

type barrierState struct {
	// mu guards everything below. Per-barrier rather than per-map-shard:
	// two barriers never contend, and the registry lookup that finds the
	// state takes no lock at all.
	mu sync.Mutex

	name    string
	parties uint32
	epoch   uint64 // current open epoch (1-based)
	gen     uint64 // bumped by every break

	arrivals []*arrival // registration order = fan-out order
	byClient map[string]*arrival
	nonces   map[string]nonceRec

	table       *predict.Table
	lastRelease time.Time // zero = discard the next interval (cold / post-break)
	openedAt    time.Time
	watchdog    *time.Timer
	stalled     bool

	history      map[uint64][]byte // ended epoch → release payload, replayable
	historyOrder []uint64
}

type arrival struct {
	clientID  string
	sess      *session // current binding; nil while disconnected
	directive []byte   // replayed verbatim on duplicate/reconnect register
	arrivedAt time.Time
}

// send is a deferred frame write: handlers compute under the barrier lock
// and transmit after releasing it (fan-out may block on slow peers).
type send struct {
	sess    *session
	payload []byte
}

// pcClient maps a client ID to its predictor table key. Key 0 is
// reserved for the barrier-interval entry.
func pcClient(clientID string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(clientID))
	if v := h.Sum64(); v != 0 {
		return v
	}
	return 1
}

// Serve accepts connections on l until the server is closed or the
// listener fails. Multiple Serve calls on different listeners are fine.
func (s *Server) Serve(l net.Listener) error {
	s.leaseOnce.Do(func() {
		s.wg.Add(1)
		go s.leaseLoop()
	})
	s.connMu.Lock()
	if s.closed.Load() {
		s.connMu.Unlock()
		l.Close()
		return net.ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.connMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close shuts the server down: listeners and connections close, the
// lease checker stops, and every in-flight goroutine is joined.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.done)
	s.connMu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return nil
}

// touch renews clientID's lease.
func (s *Server) touch(clientID string) {
	if clientID == "" {
		return
	}
	s.clientMu.Lock()
	s.clients[clientID] = s.opts.Now()
	s.clientMu.Unlock()
}

// session is one connection's server-side state.
type session struct {
	srv  *Server
	conn net.Conn

	wmu sync.Mutex // frame writes (one Write per frame)

	mu   sync.Mutex
	regs map[string]string // barrier → clientID bound through this conn
}

// send writes one frame, bounded by a lease-wide write deadline so a
// wedged peer cannot stall the server. Errors close the connection; the
// client's reconnect path owns recovery.
func (t *session) send(payload []byte) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.conn.SetWriteDeadline(t.srv.opts.Now().Add(t.srv.opts.Lease))
	if err := WriteFrame(t.conn, payload); err != nil {
		t.conn.Close()
	}
}

func (t *session) track(barrier, clientID string) {
	t.mu.Lock()
	if t.regs == nil {
		t.regs = make(map[string]string)
	}
	t.regs[barrier] = clientID
	t.mu.Unlock()
}

// serveConn is the per-connection reader loop.
func (s *Server) serveConn(conn net.Conn) {
	sess := &session{srv: s, conn: conn}
	s.connMu.Lock()
	if s.closed.Load() {
		s.connMu.Unlock()
		conn.Close()
		return
	}
	s.sessions[sess] = struct{}{}
	s.connMu.Unlock()

	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.sessions, sess)
		s.connMu.Unlock()
		s.unbind(sess)
	}()

	for {
		payload, err := ReadFrame(conn)
		if err != nil {
			return
		}
		switch payload[0] {
		case FrameRegister:
			f, err := DecodeRegister(payload)
			if err != nil {
				s.badFrame(sess, err)
				continue
			}
			s.handleRegister(sess, f)
		case FrameHeartbeat:
			f, err := DecodeHeartbeat(payload)
			if err != nil {
				s.badFrame(sess, err)
				continue
			}
			s.touch(f.ClientID)
		case FrameCancel:
			f, err := DecodeCancel(payload)
			if err != nil {
				s.badFrame(sess, err)
				continue
			}
			s.handleCancel(sess, f)
		case FrameStatusReq:
			if err := DecodeStatusReq(payload); err != nil {
				s.badFrame(sess, err)
				continue
			}
			sess.send(EncodeStatus(s.Snapshot()))
		default:
			s.badFrame(sess, fmt.Errorf("remote: unknown frame type %d", payload[0]))
		}
	}
}

func (s *Server) badFrame(sess *session, err error) {
	s.badFrames.Add(1)
	s.opts.Logf("thriftyd: bad frame from %v: %v", sess.conn.RemoteAddr(), err)
	ef := ErrorFrame{Code: ErrCodeBadFrame, Msg: err.Error()}
	sess.send(ef.Encode())
}

// unbind detaches a dead connection from every arrival it carried. The
// arrivals themselves survive — only the lease gives up on a client — so
// a reconnect within the lease resumes them.
func (s *Server) unbind(sess *session) {
	sess.mu.Lock()
	regs := make(map[string]string, len(sess.regs))
	for b, c := range sess.regs {
		regs[b] = c
	}
	sess.mu.Unlock()
	for barrier, clientID := range regs {
		if bs, _, ok := s.barriers.Get(barrier); ok {
			bs.mu.Lock()
			if a := bs.byClient[clientID]; a != nil && a.sess == sess {
				a.sess = nil
			}
			bs.mu.Unlock()
		}
	}
}

// handleRegister is the arrival path: a lock-free registry resolve (or a
// per-shard-serialized create on first sight of the name), then all
// state decisions under the barrier's own lock. The directive is also
// sent under it (through the session's own write lock) so every
// connection observes its directive before the epoch's release frame,
// and the release fan-out itself runs after unlock.
func (s *Server) handleRegister(sess *session, f Register) {
	if f.ClientID == "" || f.Barrier == "" || f.Parties == 0 {
		ef := ErrorFrame{Code: ErrCodeBadFrame, Barrier: f.Barrier,
			Msg: "remote: register needs client, barrier and parties"}
		sess.send(ef.Encode())
		return
	}
	s.touch(f.ClientID)

	bs, _, _ := s.barriers.GetOrCreate(f.Barrier, func() *barrierState {
		return &barrierState{
			name:     f.Barrier,
			parties:  f.Parties,
			epoch:    1,
			byClient: make(map[string]*arrival),
			nonces:   make(map[string]nonceRec),
			table:    predict.NewTable(s.opts.Predict),
			history:  make(map[uint64][]byte),
		}
	})
	bs.mu.Lock()
	// Under the lock: a clock read before a peer's that locked after it
	// would end the epoch before the peer arrived (a negative interval).
	now := s.opts.Now()
	if bs.parties != f.Parties {
		bs.mu.Unlock()
		ef := ErrorFrame{Code: ErrCodeParties, Barrier: f.Barrier, Msg: fmt.Sprintf(
			"remote: barrier %q has %d parties, register asked for %d",
			f.Barrier, bs.parties, f.Parties)}
		sess.send(ef.Encode())
		return
	}

	// Idempotency: has this wait attempt (client, nonce) been counted
	// already? Bind to the existing arrival, or replay the outcome of the
	// epoch it was counted into — never count it twice.
	if rec, ok := bs.nonces[f.ClientID]; ok && rec.nonce == f.Nonce {
		if rec.epoch == bs.epoch {
			a := bs.byClient[f.ClientID]
			a.sess = sess
			payload := a.directive
			bs.mu.Unlock()
			s.dupRegistrations.Add(1)
			sess.track(f.Barrier, f.ClientID)
			sess.send(payload)
			return
		}
		if payload, ok := bs.history[rec.epoch]; ok {
			bs.mu.Unlock()
			s.replays.Add(1)
			sess.send(payload)
			return
		}
		// Evicted from history: the epoch ended long ago; all we still
		// know is that this attempt cannot complete now.
		rel := Release{Barrier: f.Barrier, Epoch: rec.epoch, Gen: f.Gen,
			Broken: true, Reason: "epoch evicted from replay history"}
		bs.mu.Unlock()
		s.replays.Add(1)
		sess.send(rel.Encode())
		return
	}

	// Fresh arrival at the open epoch.
	a := &arrival{clientID: f.ClientID, sess: sess, arrivedAt: now}
	if len(bs.arrivals) == 0 {
		bs.openedAt = now
		s.openEpochs.Add(1)
		s.armWatchdog(bs)
	}
	bs.arrivals = append(bs.arrivals, a)
	bs.byClient[f.ClientID] = a
	bs.nonces[f.ClientID] = nonceRec{nonce: f.Nonce, epoch: bs.epoch}
	s.registrations.Add(1)

	dir := s.directiveFor(bs, f.ClientID, f.Nonce, now)
	a.directive = dir.Encode()

	var fanout []send
	if uint32(len(bs.arrivals)) == bs.parties {
		fanout = s.releaseLocked(bs, now)
	}
	payload := a.directive
	bs.mu.Unlock()

	sess.track(f.Barrier, f.ClientID)
	sess.send(payload)
	if fanout != nil {
		s.fanOut(fanout)
	}
}

// directiveFor runs the §3.2→Table 3 pipeline for one waiter: predict
// the stall (barrier BIT anchored at the last release, falling back to
// the client's own last stall), widen it under load, and pick the
// deepest tier whose exit cost the stall covers. Caller holds the barrier
// lock.
func (s *Server) directiveFor(bs *barrierState, clientID string, nonce uint64, now time.Time) Directive {
	o := &s.opts
	var stall time.Duration
	havePred := false
	if bitC, ok := bs.table.Predict(0); ok && !bs.lastRelease.IsZero() {
		if d := bs.lastRelease.Add(bitC.Duration()).Sub(now); d > 0 {
			stall, havePred = d, true
		}
	}
	if !havePred {
		if stC, ok := bs.table.Predict(pcClient(clientID)); ok && stC > 0 {
			stall, havePred = stC.Duration(), true
		}
	}

	shed := o.MaxEpochs > 0 && s.openEpochs.Load() > int64(o.MaxEpochs)
	if shed {
		s.shed.Add(1)
		if havePred {
			stall = time.Duration(float64(stall) * o.ShedFactor)
		}
	}

	var tier byte
	switch {
	case !havePred:
		// Warm-up: no prediction yet. The in-process barrier spins here,
		// but telling a remote CPU to spin on an unknown stall wastes the
		// exact energy the service exists to save — yield-poll instead.
		tier = TierYield
	case stall <= o.SpinThreshold:
		tier = TierSpin
	case stall <= o.YieldThreshold:
		tier = TierYield
	case stall <= o.TimedParkThreshold:
		tier = TierTimedPark
	default:
		tier = TierPark
	}
	if shed && tier < TierTimedPark {
		tier = TierTimedPark
	}

	poll := o.MaxPoll / 4
	if havePred {
		poll = stall / 8
	}
	if poll < o.MinPoll {
		poll = o.MinPoll
	}
	if poll > o.MaxPoll {
		poll = o.MaxPoll
	}
	park := stall - o.ParkMargin
	if park < 0 {
		park = 0
	}

	d := Directive{
		Barrier:   bs.name,
		Epoch:     bs.epoch,
		Gen:       bs.gen,
		Nonce:     nonce,
		Tier:      tier,
		PollNanos: int64(poll),
		ParkNanos: int64(park),
	}
	if shed {
		d.Shed = 1
	}
	if havePred {
		d.PredictedStallNanos = int64(stall)
	}
	return d
}

// releaseLocked completes the open epoch: build the release frame once
// (pure protocol state, so it is byte-identical for every waiter and
// every run), feed the predictor — the barrier-interval entry with the
// release-to-release time, each client's entry with its arrival-to-
// release stall — and re-arm the next epoch. Caller holds the barrier
// lock; the returned sends are the fan-out, performed after unlock.
func (s *Server) releaseLocked(bs *barrierState, now time.Time) []send {
	rel := Release{Barrier: bs.name, Epoch: bs.epoch, Gen: bs.gen,
		Arrived: uint32(len(bs.arrivals))}
	payload := rel.Encode()
	s.recordHistory(bs, payload)

	if !bs.lastRelease.IsZero() {
		bs.table.Update(0, sim.FromDuration(now.Sub(bs.lastRelease)))
	}
	for _, a := range bs.arrivals {
		bs.table.Update(pcClient(a.clientID), sim.FromDuration(now.Sub(a.arrivedAt)))
	}
	bs.lastRelease = now

	sends := make([]send, 0, len(bs.arrivals))
	for _, a := range bs.arrivals {
		if a.sess != nil {
			sends = append(sends, send{sess: a.sess, payload: payload})
		}
	}
	s.releases.Add(1)
	s.closeEpochLocked(bs)
	return sends
}

// breakEpochLocked ends the open epoch broken — lease lost, cancelled,
// or reset — waking every connected waiter with the broken release frame
// and immediately re-arming the next epoch under a bumped generation
// (the server-side Reset). The interval spanning the break is discarded,
// exactly like the in-process barrier discards intervals spanning a
// Reset. Caller holds the barrier lock.
func (s *Server) breakEpochLocked(bs *barrierState, reason string) []send {
	if len(bs.arrivals) == 0 {
		return nil
	}
	rel := Release{Barrier: bs.name, Epoch: bs.epoch, Gen: bs.gen,
		Broken: true, Arrived: uint32(len(bs.arrivals)), Reason: reason}
	payload := rel.Encode()
	s.recordHistory(bs, payload)

	sends := make([]send, 0, len(bs.arrivals))
	for _, a := range bs.arrivals {
		if a.sess != nil {
			sends = append(sends, send{sess: a.sess, payload: payload})
		}
	}
	s.breaks.Add(1)
	bs.gen++
	bs.lastRelease = time.Time{}
	s.closeEpochLocked(bs)
	return sends
}

// closeEpochLocked is the shared epoch teardown: advance the epoch
// counter, clear the arrival table, and stop the watchdog.
func (s *Server) closeEpochLocked(bs *barrierState) {
	bs.epoch++
	bs.arrivals = nil
	bs.byClient = make(map[string]*arrival)
	bs.openedAt = time.Time{}
	bs.stalled = false
	if bs.watchdog != nil {
		bs.watchdog.Stop()
		bs.watchdog = nil
	}
	s.openEpochs.Add(-1)
}

func (s *Server) recordHistory(bs *barrierState, payload []byte) {
	bs.history[bs.epoch] = payload
	bs.historyOrder = append(bs.historyOrder, bs.epoch)
	for len(bs.historyOrder) > s.opts.HistoryDepth {
		delete(bs.history, bs.historyOrder[0])
		bs.historyOrder = bs.historyOrder[1:]
	}
}

// fanOut transmits the release frames leaf by leaf: arrivals grouped in
// registration order into leaves of FanoutRadix, one writer goroutine
// per leaf — the sharded leaf-broadcast discipline carried to the wire.
func (s *Server) fanOut(sends []send) {
	radix := s.opts.FanoutRadix
	for start := 0; start < len(sends); start += radix {
		leaf := sends[start:min(start+radix, len(sends))]
		s.wg.Add(1)
		go func(leaf []send) {
			defer s.wg.Done()
			for _, snd := range leaf {
				snd.sess.send(snd.payload)
			}
		}(leaf)
	}
}

// handleCancel breaks the epoch a waiter abandons, mirroring the
// in-process rule that a cancelled WaitContext breaks the generation for
// every peer. The cancel is matched by the attempt nonce — the client
// may never have learned its epoch — and a cancel for an already-ended
// epoch replays that epoch's outcome instead, so duplicated cancel
// frames are as harmless as duplicated registers.
func (s *Server) handleCancel(sess *session, f Cancel) {
	s.touch(f.ClientID)
	bs, _, found := s.barriers.Get(f.Barrier)
	if !found {
		return
	}
	bs.mu.Lock()
	rec, ok := bs.nonces[f.ClientID]
	if !ok || rec.nonce != f.Nonce {
		bs.mu.Unlock()
		return
	}
	if rec.epoch == bs.epoch && bs.byClient[f.ClientID] != nil {
		reason := fmt.Sprintf("cancelled by %q", f.ClientID)
		if f.Reason != "" {
			reason = fmt.Sprintf("cancelled by %q: %s", f.ClientID, f.Reason)
		}
		sends := s.breakEpochLocked(bs, reason)
		bs.mu.Unlock()
		s.cancelBreaks.Add(1)
		s.fanOut(sends)
		return
	}
	payload, ok := bs.history[rec.epoch]
	bs.mu.Unlock()
	if ok {
		s.replays.Add(1)
		sess.send(payload)
	}
}

// armWatchdog schedules the stall check for a newly opened epoch:
// StallMultiple × the predicted barrier interval, floored at StallFloor.
// Caller holds the barrier lock.
func (s *Server) armWatchdog(bs *barrierState) {
	d := s.opts.StallFloor
	var bit time.Duration
	if bitC, ok := bs.table.Predict(0); ok {
		bit = bitC.Duration()
		if m := time.Duration(s.opts.StallMultiple * float64(bit)); m > d {
			d = m
		}
	}
	name, epoch, gen := bs.name, bs.epoch, bs.gen
	// A detached runtime timer on purpose (the same escape hatch as the
	// in-process watchdog): it must fire even when everything else is
	// wedged.
	bs.watchdog = time.AfterFunc(d, func() {
		s.stallCheck(name, epoch, gen, bit)
	})
}

// stallCheck fires when an epoch outlives its watchdog deadline: if it
// is still open it is reported through OnStall and every connected
// waiter gets an advisory frame. It never breaks the epoch.
func (s *Server) stallCheck(name string, epoch, gen uint64, bit time.Duration) {
	bs, _, found := s.barriers.Get(name)
	if !found {
		return
	}
	bs.mu.Lock()
	if bs.epoch != epoch || bs.gen != gen || len(bs.arrivals) == 0 || bs.stalled {
		bs.mu.Unlock()
		return
	}
	bs.stalled = true
	adv := Advisory{Barrier: name, Epoch: epoch, Gen: gen,
		Arrived: uint32(len(bs.arrivals)), Parties: bs.parties}
	payload := adv.Encode()
	sends := make([]send, 0, len(bs.arrivals))
	for _, a := range bs.arrivals {
		if a.sess != nil {
			sends = append(sends, send{sess: a.sess, payload: payload})
		}
	}
	ev := StallEvent{
		Barrier: name, Epoch: epoch, Gen: gen,
		Arrived: len(bs.arrivals), Parties: int(bs.parties),
		Waited: s.opts.Now().Sub(bs.openedAt), PredictedBIT: bit,
	}
	bs.mu.Unlock()
	s.stalls.Add(1)
	if s.opts.OnStall != nil {
		s.opts.OnStall(ev)
	}
	s.fanOut(sends)
}

// leaseLoop is the failure detector: it scans for clients that have gone
// silent past the lease and breaks every epoch holding one of their
// arrivals — a crashed or partitioned client must not wedge its peers
// for longer than one lease interval.
func (s *Server) leaseLoop() {
	defer s.wg.Done()
	period := s.opts.Lease / 8
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.checkLeases()
		}
	}
}

func (s *Server) checkLeases() {
	now := s.opts.Now()
	expired := make(map[string]bool)
	s.clientMu.Lock()
	for id, seen := range s.clients {
		if now.Sub(seen) > s.opts.Lease {
			expired[id] = true
			delete(s.clients, id)
		}
	}
	s.clientMu.Unlock()
	if len(expired) == 0 {
		return
	}
	var sends []send
	s.barriers.Range(func(_ string, _ uint64, bs *barrierState) bool {
		bs.mu.Lock()
		for _, a := range bs.arrivals {
			if expired[a.clientID] {
				s.leaseBreaks.Add(1)
				s.opts.Logf("thriftyd: lease lost: client %q at barrier %q epoch %d",
					a.clientID, bs.name, bs.epoch)
				sends = append(sends, s.breakEpochLocked(bs,
					fmt.Sprintf("lease lost: client %q went silent", a.clientID))...)
				break
			}
		}
		bs.mu.Unlock()
		return true
	})
	s.fanOut(sends)
}

// Snapshot reports every known barrier, sorted by name — the remote
// mirror of thrifty.Barrier.Snapshot, one row per barrier.
func (s *Server) Snapshot() []BarrierStatus {
	var rows []BarrierStatus
	s.barriers.Range(func(_ string, _ uint64, bs *barrierState) bool {
		bs.mu.Lock()
		rows = append(rows, BarrierStatus{
			Name:    bs.name,
			Epoch:   bs.epoch,
			Gen:     bs.gen,
			Arrived: uint32(len(bs.arrivals)),
			Parties: bs.parties,
		})
		bs.mu.Unlock()
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// ReleaseHistory returns copies of the recorded release frames of a
// barrier's ended epochs, in epoch order — the replay buffer, exposed
// for diagnostics and for the chaos suite's byte-identity checks.
func (s *Server) ReleaseHistory(barrier string) [][]byte {
	bs, _, found := s.barriers.Get(barrier)
	if !found {
		return nil
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	out := make([][]byte, 0, len(bs.historyOrder))
	for _, epoch := range bs.historyOrder {
		p := bs.history[epoch]
		out = append(out, append([]byte(nil), p...))
	}
	return out
}

// Stats returns a snapshot of server activity counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Registrations:    s.registrations.Load(),
		DupRegistrations: s.dupRegistrations.Load(),
		Replays:          s.replays.Load(),
		Releases:         s.releases.Load(),
		Breaks:           s.breaks.Load(),
		LeaseBreaks:      s.leaseBreaks.Load(),
		CancelBreaks:     s.cancelBreaks.Load(),
		Stalls:           s.stalls.Load(),
		Shed:             s.shed.Load(),
		BadFrames:        s.badFrames.Load(),
		OpenEpochs:       s.openEpochs.Load(),
	}
	st.Barriers = s.barriers.Len()
	return st
}
