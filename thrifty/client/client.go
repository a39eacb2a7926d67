// Package client is the thin client half of the thriftyd protocol: it
// turns a remote thrifty-barrier service into a blocking Wait call with
// the same contract as the in-process thrifty.Barrier — nil on release,
// thrifty.ErrBroken when the rendezvous breaks, ctx.Err() for the caller
// that cancelled — while obeying the server's sleep directive (the
// paper's Table 3 tier decision, made server-side from the predicted
// stall) for how it waits locally.
//
// The client is built for a faulty transport. Every wait attempt carries
// a nonce the server keys its double-count guard on, so registers can be
// retransmitted freely: across silent frame drops (the register is
// re-sent until its directive arrives), across reconnects (a background
// redial re-registers every pending waiter with its original nonce), and
// across the release itself (a duplicate register is answered with the
// recorded outcome, never counted again). Reconnect backoff is
// exponential with deterministic jitter drawn from internal/fault.Source
// keyed by the client ID, so a chaos run's retry schedule replays
// exactly. A client that stays partitioned past the server's lease finds
// its epoch broken for everyone — the liveness half of the contract —
// and its own Wait surfaces thrifty.ErrBroken as soon as it reconnects
// and is handed the broken release.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thriftybarrier/internal/fault"
	"thriftybarrier/internal/registry"
	"thriftybarrier/internal/remote"
	"thriftybarrier/internal/waiter"
	"thriftybarrier/thrifty"
)

// retryKind is this package's decision kind in its fault.Source space.
const retryKind uint64 = 1

// Options configures a Client. Dial and ClientID are required; every
// other zero field selects the default.
type Options struct {
	// Dial opens a connection to the server. It is called for the initial
	// connection and for every reconnect.
	Dial func(ctx context.Context) (net.Conn, error)
	// ClientID identifies this client to the server's lease table and
	// prediction machinery. It must be unique among live clients and
	// stable across reconnects.
	ClientID string

	// Lease should match the server's lease interval; heartbeats are sent
	// every Lease/3 (or HeartbeatEvery when set) and frame writes carry a
	// Lease-wide deadline. Default 5s.
	Lease          time.Duration
	HeartbeatEvery time.Duration

	// RetryBase/RetryMax bound the exponential reconnect-and-retransmit
	// backoff. Defaults 5ms and 500ms.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed feeds the deterministic backoff jitter. Default 1.
	Seed uint64

	// OnAdvisory, when non-nil, receives the server's stall advisories.
	OnAdvisory func(remote.Advisory)
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
	// Logf, when non-nil, receives diagnostic logs.
	Logf func(format string, args ...any)
}

func (o *Options) fill() error {
	if o.Dial == nil {
		return errors.New("client: Options.Dial is required")
	}
	if o.ClientID == "" {
		return errors.New("client: Options.ClientID is required")
	}
	if o.Lease == 0 {
		o.Lease = 5 * time.Second
	}
	if o.HeartbeatEvery == 0 {
		o.HeartbeatEvery = o.Lease / 3
	}
	if o.RetryBase == 0 {
		o.RetryBase = 5 * time.Millisecond
	}
	if o.RetryMax == 0 {
		o.RetryMax = 500 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// ErrClosed is returned by waits interrupted by Close.
var ErrClosed = errors.New("client: closed")

// Client is a connection to a thriftyd server. One Client serves any
// number of concurrent Wait calls on distinct barriers; it is safe for
// concurrent use.
type Client struct {
	opts Options
	src  *fault.Source // deterministic backoff jitter

	mu     sync.Mutex
	conn   net.Conn
	status chan []remote.BarrierStatus
	closed bool

	// waiters maps barrier → in-flight wait. Lookups on the frame
	// dispatch path (one per received frame) are lock-free; inserts
	// happen under mu so the closed check in addWaiter and the
	// collect-and-finish in Close cannot race.
	waiters *registry.Registry[*call]
	// ended maps barrier → the latest epoch a Wait on it ended in
	// (guarded by mu): a release frame at or below it is a stale
	// duplicate, never the outcome of a later Wait.
	ended map[string]uint64

	wmu sync.Mutex // frame writes

	dialMu    sync.Mutex // single-flight dialing
	redialing bool

	baseCtx    context.Context // done when the client closes
	baseCancel context.CancelFunc
	hbOnce     sync.Once
	nonce      atomic.Uint64
	hbSeq      atomic.Uint64
	wg         sync.WaitGroup
}

// call is one in-flight Wait call.
type call struct {
	barrier string
	parties uint32
	nonce   uint64
	after   uint64 // the epoch the previous Wait on barrier ended in

	mu        sync.Mutex
	directive *remote.Directive
	err       error
	epoch     uint64 // the epoch of the release frame that ended the call

	// ended is set, and then done closed, when the outcome lands: the
	// flag is the wait rungs' spin target, the channel their park target.
	ended atomic.Bool
	done  chan struct{}
	dirCh chan struct{} // closed when the directive or the outcome lands
}

func (w *call) setDirective(d remote.Directive) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.directive == nil && !w.ended.Load() {
		w.directive = &d
		close(w.dirCh)
	}
}

// finish records the call's outcome; epoch is the ending release
// frame's, or 0 when no release ended it.
func (w *call) finish(err error, epoch uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ended.Load() {
		return
	}
	w.err, w.epoch = err, epoch
	if w.directive == nil {
		close(w.dirCh) // an outcome replayed before the directive
	}
	w.ended.Store(true)
	close(w.done)
}

// New builds a client. It does not dial; the first Wait (or Status)
// does.
func New(opts Options) (*Client, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Client{
		opts:       opts,
		src:        fault.NewSource(opts.Seed, "client/"+opts.ClientID),
		waiters:    registry.New[*call](4),
		ended:      make(map[string]uint64),
		baseCtx:    ctx,
		baseCancel: cancel,
	}, nil
}

// dialContext derives a dial context from parent that also ends when the
// client closes, so no goroutine can stay wedged in Dial past Close.
func (c *Client) dialContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	stop := context.AfterFunc(c.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// Close tears the client down: the connection closes, every in-flight
// Wait returns ErrClosed, and background goroutines are joined.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	// Inserts happen under mu, so after closed is set the snapshot below
	// cannot miss a waiter that will never be finished.
	var waiters []*call
	c.waiters.Range(func(_ string, _ uint64, w *call) bool {
		waiters = append(waiters, w)
		return true
	})
	c.baseCancel()
	if conn != nil {
		conn.Close()
	}
	for _, w := range waiters {
		w.finish(ErrClosed, 0)
	}
	c.wg.Wait()
	return nil
}

// Wait arrives at the named barrier and blocks until the epoch releases
// (nil), breaks (thrifty.ErrBroken, wrapped with the server's reason),
// the ctx ends (ctx.Err(), after telling the server to break the epoch
// for the peers — the WaitContext contract), or the client closes
// (ErrClosed). How it blocks is the server's call: the registration's
// directive picks the spin/yield/timed-park/park tier from the predicted
// stall, and the client honors it locally.
func (c *Client) Wait(ctx context.Context, barrier string, parties int) error {
	if err := ctx.Err(); err != nil {
		return err // cancelled before arrival: nothing to join or break
	}
	w, err := c.addWaiter(barrier, parties)
	if err != nil {
		return err
	}
	defer c.removeWaiter(w)

	// The transport may silently drop any frame, so "sent" proves nothing
	// — only the directive does: the registration is re-sent on the
	// backoff schedule until the directive (or an outcome replayed before
	// it) lands. The nonce makes the retransmits harmless.
	reg := waiter.Wait{Release: w.dirCh, Cancel: ctx.Done()}
	o := c.retransmit(ctx, w, &reg, waiter.Expired, c.backoff)
	if o == waiter.Released && w.directive != nil { // settled once dirCh closed
		o = c.await(ctx, w, w.directive)
	}
	if o == waiter.Cancelled && !w.ended.Load() {
		c.sendCancel(w, ctx.Err().Error())
		return ctx.Err()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// WaitTimeout is Wait with a hard deadline: past it, the wait gives up,
// the epoch is broken for the peers, and the call returns
// thrifty.ErrBroken (wrapped with the deadline) — the remote analog of a
// timed-out WaitContext.
func (c *Client) WaitTimeout(barrier string, parties int, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	err := c.Wait(ctx, barrier, parties)
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: wait deadline %v exceeded", thrifty.ErrBroken, d)
	}
	return err
}

func (c *Client) addWaiter(barrier string, parties int) (*call, error) {
	if barrier == "" {
		return nil, errors.New("client: empty barrier name")
	}
	if parties < 1 {
		return nil, fmt.Errorf("client: parties %d < 1", parties)
	}
	w := &call{
		barrier: barrier,
		parties: uint32(parties),
		nonce:   c.nonce.Add(1),
		dirCh:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	w.after = c.ended[barrier]
	if _, ok := c.waiters.Insert(barrier, w); !ok {
		return nil, fmt.Errorf("client: wait already in flight on barrier %q", barrier)
	}
	return w, nil
}

// removeWaiter retires a finished call and records the epoch it ended
// in: its release frame's, else its directive's (an abandoned epoch is
// broken by the cancel).
func (c *Client) removeWaiter(w *call) {
	c.waiters.Delete(w.barrier, func(got *call) bool { return got == w })
	w.mu.Lock()
	epoch := w.epoch
	w.mu.Unlock()
	if epoch == 0 {
		epoch, _ = w.token()
	}
	c.mu.Lock()
	if epoch > c.ended[w.barrier] {
		c.ended[w.barrier] = epoch
	}
	c.mu.Unlock()
}

// token is the resume token of w's directive, zero before it lands.
func (w *call) token() (epoch, gen uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.directive == nil {
		return 0, 0
	}
	return w.directive.Epoch, w.directive.Gen
}

func (c *Client) registerFrame(w *call) []byte {
	f := remote.Register{
		ClientID: c.opts.ClientID,
		Barrier:  w.barrier,
		Parties:  w.parties,
		Nonce:    w.nonce,
	}
	f.Epoch, f.Gen = w.token()
	return f.Encode()
}

// await executes the directive's tier on the shared wait ladder. The
// release frame wakes a parked call directly, so the spin budget need
// only cover a park's wake-up, not the remote stall. The release frame
// may be dropped, so every park is bounded by a refresh deadline (eight
// poll cadences, at least 20ms), past which the registration is re-sent
// at a doubling cadence and the server replays the open directive or the
// recorded release. Close finishes every call, so the release channel
// also covers a closing client.
func (c *Client) await(ctx context.Context, w *call, dir *remote.Directive) waiter.Outcome {
	poll := 2 * time.Millisecond
	if dir.PollNanos > 0 {
		poll = time.Duration(dir.PollNanos)
	}
	refresh := max(8*poll, 20*time.Millisecond)
	wt := waiter.Wait{
		Done:      &w.ended,
		Release:   w.done,
		Cancel:    ctx.Done(),
		Budget:    waiter.DefaultBudget,
		Spinnable: runtime.GOMAXPROCS(0) > 1,
		Limit:     refresh,
		Now:       c.opts.Now,
	}
	o := wt.Run(waiter.Tier(dir.Tier), time.Duration(dir.ParkNanos))
	return c.retransmit(ctx, w, &wt, o, func(int) time.Duration {
		if refresh < c.opts.RetryMax {
			refresh *= 2
		}
		return refresh
	})
}

// retransmit re-sends w's registration each time its wait expired and
// waits again, delay(attempt) at most, until the wait ends otherwise.
func (c *Client) retransmit(ctx context.Context, w *call, wt *waiter.Wait, o waiter.Outcome, delay func(attempt int) time.Duration) waiter.Outcome {
	for attempt := 0; o == waiter.Expired; attempt++ {
		if conn, err := c.ensureConn(ctx); err == nil {
			c.write(conn, c.registerFrame(w))
		}
		o = wt.Sleep(delay(attempt))
	}
	return o
}

// sendCancel tells the server this attempt is abandoned, breaking the
// epoch for the peers. Best-effort: if it is lost, the lease breaks the
// epoch instead.
func (c *Client) sendCancel(w *call, reason string) {
	f := remote.Cancel{
		ClientID: c.opts.ClientID,
		Barrier:  w.barrier,
		Nonce:    w.nonce,
		Reason:   reason,
	}
	f.Epoch, f.Gen = w.token()
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		c.write(conn, f.Encode())
	}
}

// backoff is exponential with deterministic jitter in [d/2, d]: the
// attempt schedule is a pure function of (Seed, ClientID, attempt), so a
// chaos run replays byte for byte.
func (c *Client) backoff(attempt int) time.Duration {
	shift := attempt
	if shift > 16 {
		shift = 16
	}
	d := c.opts.RetryBase << shift
	if d > c.opts.RetryMax || d <= 0 {
		d = c.opts.RetryMax
	}
	j := c.src.Roll(retryKind, uint64(attempt))
	return d/2 + time.Duration(float64(d/2)*j)
}

// ensureConn returns the live connection, dialing (single-flight) when
// there is none.
func (c *Client) ensureConn(ctx context.Context) (net.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if conn := c.conn; conn != nil {
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()

	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if conn := c.conn; conn != nil {
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()

	dctx, done := c.dialContext(ctx)
	conn, err := c.opts.Dial(dctx)
	done()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	c.conn = conn
	c.wg.Add(1) // under mu: Close sets closed before it waits
	startHB := false
	c.hbOnce.Do(func() {
		c.wg.Add(1)
		startHB = true
	})
	c.mu.Unlock()
	go func() {
		defer c.wg.Done()
		c.readLoop(conn)
	}()
	if startHB {
		go func() {
			defer c.wg.Done()
			c.heartbeatLoop()
		}()
	}
	return conn, nil
}

// write sends one frame under the write lock with a lease-wide deadline.
// A failed write declares the connection lost.
func (c *Client) write(conn net.Conn, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	conn.SetWriteDeadline(c.opts.Now().Add(c.opts.Lease))
	if err := remote.WriteFrame(conn, payload); err != nil {
		c.connLost(conn, err)
		return err
	}
	return nil
}

// readLoop dispatches inbound frames until the connection dies.
func (c *Client) readLoop(conn net.Conn) {
	for {
		payload, err := remote.ReadFrame(conn)
		if err != nil {
			c.connLost(conn, err)
			return
		}
		switch payload[0] {
		case remote.FrameDirective:
			f, err := remote.DecodeDirective(payload)
			if err != nil {
				continue
			}
			if w := c.waiterFor(f.Barrier); w != nil && w.nonce == f.Nonce {
				w.setDirective(f)
			}
		case remote.FrameRelease:
			f, err := remote.DecodeRelease(payload)
			if err != nil {
				continue
			}
			w := c.waiterFor(f.Barrier)
			if w == nil {
				continue
			}
			// Accept when the epoch matches ours, or when we never
			// learned ours — a replayed outcome answering our register —
			// unless it is a duplicate of an earlier Wait's release.
			if epoch, _ := w.token(); epoch != 0 && epoch != f.Epoch || epoch == 0 && f.Epoch <= w.after {
				continue
			}
			if f.Broken {
				w.finish(fmt.Errorf("%w: %s", thrifty.ErrBroken, f.Reason), f.Epoch)
			} else {
				w.finish(nil, f.Epoch)
			}
		case remote.FrameAdvisory:
			f, err := remote.DecodeAdvisory(payload)
			if err != nil {
				continue
			}
			c.opts.Logf("client %s: stall advisory: barrier %q epoch %d %d/%d arrived",
				c.opts.ClientID, f.Barrier, f.Epoch, f.Arrived, f.Parties)
			if c.opts.OnAdvisory != nil {
				c.opts.OnAdvisory(f)
			}
		case remote.FrameError:
			f, err := remote.DecodeError(payload)
			if err != nil {
				continue
			}
			c.opts.Logf("client %s: server error %d: %s", c.opts.ClientID, f.Code, f.Msg)
			if f.Code == remote.ErrCodeParties && f.Barrier != "" {
				// Permanent for this wait: retrying cannot fix a width
				// disagreement.
				if w := c.waiterFor(f.Barrier); w != nil {
					w.finish(fmt.Errorf("client: %s", f.Msg), 0)
				}
			}
		case remote.FrameStatus:
			rows, err := remote.DecodeStatus(payload)
			if err != nil {
				continue
			}
			c.mu.Lock()
			ch := c.status
			c.status = nil
			c.mu.Unlock()
			if ch != nil {
				ch <- rows
			}
		}
	}
}

// waiterFor resolves the in-flight wait on barrier (nil if none). This
// is the per-received-frame hot path, and the registry makes it
// lock-free: frame dispatch never queues behind Wait setup/teardown or
// the connection bookkeeping under c.mu.
func (c *Client) waiterFor(barrier string) *call {
	w, _, _ := c.waiters.Get(barrier)
	return w
}

// connLost drops a dead connection and, when waits are pending, kicks
// the background redial so reconnect does not wait for the next poll.
func (c *Client) connLost(conn net.Conn, err error) {
	conn.Close()
	c.mu.Lock()
	if c.conn != conn {
		c.mu.Unlock()
		return
	}
	c.conn = nil
	pending := c.waiters.Len() > 0
	kick := pending && !c.redialing && !c.closed
	if kick {
		c.redialing = true
		c.wg.Add(1) // under mu: Close sets closed before it waits
	}
	c.mu.Unlock()
	c.opts.Logf("client %s: connection lost: %v", c.opts.ClientID, err)
	if kick {
		go func() {
			defer c.wg.Done()
			c.redialLoop()
		}()
	}
}

// redialLoop re-dials after a lost connection and re-registers every
// pending waiter with its original nonce — the reconnect path of the
// idempotency contract. The waiters' own retransmit loops would get
// there eventually; this just gets there first.
func (c *Client) redialLoop() {
	defer func() {
		c.mu.Lock()
		c.redialing = false
		c.mu.Unlock()
	}()
	for attempt := 0; ; attempt++ {
		var pending []*call
		c.waiters.Range(func(_ string, _ uint64, w *call) bool {
			pending = append(pending, w)
			return true
		})
		if c.baseCtx.Err() != nil || len(pending) == 0 {
			return // closed, or nothing left to re-register
		}
		conn, err := c.ensureConn(c.baseCtx)
		if err != nil {
			backoff := waiter.Wait{Cancel: c.baseCtx.Done()}
			if backoff.Sleep(c.backoff(attempt)) != waiter.Expired {
				return // closed
			}
			continue
		}
		for _, w := range pending {
			if !w.ended.Load() {
				c.write(conn, c.registerFrame(w))
			}
		}
		return
	}
}

// heartbeatLoop renews the lease for as long as the client lives. A
// ticker, not a per-beat timer: one timer-heap entry total.
func (c *Client) heartbeatLoop() {
	t := time.NewTicker(c.opts.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
		}
		c.mu.Lock()
		conn := c.conn
		c.mu.Unlock()
		pending := c.waiters.Len() > 0
		if conn == nil && pending {
			// Keep the lease alive across a dropped connection too.
			var err error
			if conn, err = c.ensureConn(c.baseCtx); err != nil {
				continue
			}
		}
		if conn != nil {
			hb := remote.Heartbeat{ClientID: c.opts.ClientID, Seq: c.hbSeq.Add(1)}
			c.write(conn, hb.Encode())
		}
	}
}

// Status asks the server for its barrier table. One outstanding request
// at a time.
func (c *Client) Status(ctx context.Context) ([]remote.BarrierStatus, error) {
	ch := make(chan []remote.BarrierStatus, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.status != nil {
		c.mu.Unlock()
		return nil, errors.New("client: status request already in flight")
	}
	c.status = ch
	c.mu.Unlock()
	clear := func() {
		c.mu.Lock()
		if c.status == ch {
			c.status = nil
		}
		c.mu.Unlock()
	}
	conn, err := c.ensureConn(ctx)
	if err != nil {
		clear()
		return nil, err
	}
	if err := c.write(conn, remote.EncodeStatusReq()); err != nil {
		clear()
		return nil, err
	}
	select {
	case rows := <-ch:
		return rows, nil
	case <-ctx.Done():
		clear()
		return nil, ctx.Err()
	case <-c.baseCtx.Done():
		clear()
		return nil, ErrClosed
	}
}
