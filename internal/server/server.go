package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ldbcsnb/internal/bi"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/query"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
	"ldbcsnb/internal/xrand"
)

// serveWriteBucket namespaces the IDs the write class creates, far above
// the generated dataset's minute buckets (~2^25 minutes since epoch), so
// server writes never collide with dataset or update-stream entities.
const serveWriteBucket = int64(1) << 33

// Config configures a Server. Zero-value fields take serving defaults
// (see applyDefaults).
type Config struct {
	// Store serves every request; Persist, when set, is flushed during
	// Shutdown so drained commits are durable before the process exits.
	Store   *store.Store
	Persist *store.Persistent
	// Pools is the curated parameter-pool set requests bind against
	// (driver.PreparePools); Seed is the server half of the binding seed,
	// mixed with each request's seed for deterministic parameters.
	Pools *workload.ParamPools
	Seed  uint64

	// Interactive admits ClassComplex and ClassShort, BI admits ClassBI,
	// Write admits ClassWrite. Interactive pressure sheds BI arrivals
	// first (see dispatch).
	Interactive, BI, Write GateConfig

	// DefaultDeadline applies when a request carries DeadlineMs == 0;
	// MaxDeadline caps what a request may ask for.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// ReadTimeout bounds reading one whole request frame once its first
	// byte arrived (the slow-loris guard); IdleTimeout bounds waiting for
	// that first byte. WriteTimeout bounds writing one response.
	ReadTimeout  time.Duration
	IdleTimeout  time.Duration
	WriteTimeout time.Duration

	// MaxFrame rejects oversized frame claims; MaxConns caps concurrent
	// connections (excess accepts are closed immediately).
	MaxFrame int
	MaxConns int
}

func (c *Config) applyDefaults() {
	c.Interactive = c.Interactive.withDefaults(4, 8, 20*time.Millisecond)
	c.BI = c.BI.withDefaults(1, 2, 50*time.Millisecond)
	c.Write = c.Write.withDefaults(2, 8, 20*time.Millisecond)
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 100 * time.Millisecond
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 2 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
}

// Stats is a point-in-time snapshot of the server's request counters.
type Stats struct {
	// Accepted and Rejected count connections (Rejected = over MaxConns).
	Accepted, Rejected int64
	// Served counts completed requests (any status); Shed, TimedOut and
	// Errored split the non-OK outcomes. BadFrames counts protocol
	// violations that closed a connection.
	Served, Shed, TimedOut, Errored, BadFrames int64
}

// Server is one serving instance. Create with New, start with Serve (or
// ListenAndServe), stop with Shutdown.
type Server struct {
	cfg   Config
	gates [numClasses]*gate // nil for ClassPing

	baseCtx context.Context
	cancel  context.CancelFunc

	ln       net.Listener
	draining atomic.Bool
	inflight atomic.Int64   // admitted request executions
	connWG   sync.WaitGroup // connection handlers

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // guarded by connMu

	writeSeq atomic.Uint64

	// Compiled-plan cache for ClassQuery, keyed by query text. Plans are
	// compiled without cardinality hints so one plan serves every view
	// epoch; the cache is wiped wholesale when it fills (ad-hoc texts are
	// few and repetitive in practice — clients resend the same strings).
	planMu    sync.Mutex
	planCache map[string]*query.Plan

	accepted, rejected atomic.Int64
	served, errored    atomic.Int64
	badFrames          atomic.Int64
}

// New builds a Server over cfg. The store and pools must be loaded; the
// server itself holds no dataset state beyond them.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		baseCtx: ctx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
	}
	s.gates[ClassComplex] = newGate(cfg.Interactive)
	s.gates[ClassShort] = s.gates[ClassComplex] // one interactive gate
	s.gates[ClassBI] = newGate(cfg.BI)
	s.gates[ClassWrite] = newGate(cfg.Write)
	s.gates[ClassQuery] = s.gates[ClassBI] // ad-hoc queries ride the BI lane
	s.planCache = make(map[string]*query.Plan)
	return s
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.baseCtx.Err() != nil || s.draining.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		if int(s.liveConns()) >= s.cfg.MaxConns {
			s.rejected.Add(1)
			c.Close() //snb:errok conn rejected before any request; nothing in flight to lose
			continue
		}
		s.accepted.Add(1)
		s.trackConn(c, true)
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			defer s.trackConn(c, false)
			defer c.Close() //snb:errok every response write reported its own error; the close has nothing left to flush
			s.handleConn(c)
		}()
	}
}

// Addr returns the bound listen address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.connMu.Lock()
	ln := s.ln
	s.connMu.Unlock()
	if ln == nil {
		return nil
	}
	return ln.Addr()
}

func (s *Server) trackConn(c net.Conn, add bool) {
	s.connMu.Lock()
	if add {
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
	s.connMu.Unlock()
}

func (s *Server) liveConns() int {
	s.connMu.Lock()
	n := len(s.conns)
	s.connMu.Unlock()
	return n
}

// Shutdown drains the server: stop accepting, answer new requests with
// RETRY_AFTER, wait for in-flight requests to finish (bounded by ctx),
// then close every connection and flush the group-commit lanes so every
// acknowledged write is durable. Safe to call once; returns the flush
// error, if any.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.connMu.Lock()
	ln := s.ln
	s.connMu.Unlock()
	if ln != nil {
		ln.Close() //snb:errok drain path; a failed listener close cannot lose data
	}

	// Wait for in-flight request executions, bounded by ctx. A polled
	// atomic (not a WaitGroup — Add racing Wait at zero is disallowed, and
	// requests admit themselves concurrently with this drain) at a 1ms
	// cadence; connections sitting idle in a read are force-closed below.
	for s.inflight.Load() > 0 {
		if ctx.Err() != nil {
			// Past the drain budget: cancel mid-query, remaining requests
			// unwind cooperatively with StatusTimeout.
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Unblock handlers parked in reads and wait them out.
	s.cancel()
	s.connMu.Lock()
	for c := range s.conns {
		c.Close() //snb:errok forced close to unblock parked reads; durability is flushed by Persist.Close below
	}
	s.connMu.Unlock()
	s.connWG.Wait()

	// Flush the durability pipeline: drained commits must survive the
	// process. Persistent.Close fences later commits with ErrStoreClosed.
	if s.cfg.Persist != nil {
		return s.cfg.Persist.Close()
	}
	if s.cfg.Store != nil {
		s.cfg.Store.MarkClosed()
	}
	return nil
}

// Stats snapshots the request counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Accepted:  s.accepted.Load(),
		Rejected:  s.rejected.Load(),
		Served:    s.served.Load(),
		Errored:   s.errored.Load(),
		BadFrames: s.badFrames.Load(),
	}
	seen := map[*gate]bool{}
	for _, g := range s.gates {
		if g == nil || seen[g] {
			continue
		}
		seen[g] = true
		st.Shed += g.shed.Load()
		st.TimedOut += g.timedOut.Load()
	}
	return st
}

// handleConn serves one connection: read a frame, dispatch, respond,
// repeat. Requests on one connection run sequentially (pipelining across
// connections, not within one), so per-conn scratch state needs no locks.
// Any protocol violation — garbage frame, oversized claim, stalled read —
// closes the connection; well-behaved clients reconnect.
func (s *Server) handleConn(c net.Conn) {
	br := bufio.NewReaderSize(c, 4096)
	var frameBuf, respBuf []byte
	sc := workload.NewScratch()
	qsc := query.WrapScratch(sc) // wraps sc: one connection goroutine owns both
	for {
		if s.baseCtx.Err() != nil {
			return
		}
		// Idle phase: wait for the first byte of the next frame.
		c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) //snb:errok deadline errors surface on the read itself
		if _, err := br.Peek(1); err != nil {
			return
		}
		// Framed phase: the whole frame must arrive within ReadTimeout of
		// its first byte — a slow-loris peer trickling bytes is cut here.
		c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)) //snb:errok deadline errors surface on the read itself
		payload, err := ReadFrame(br, frameBuf, s.cfg.MaxFrame)
		if err != nil {
			s.badFrames.Add(1)
			return
		}
		frameBuf = payload[:0]
		req, err := ParseRequest(payload)
		if err != nil {
			// The stream may be desynced (wrong-length frame): answer with
			// reqID 0 and close.
			s.badFrames.Add(1)
			resp := Response{Status: StatusError, Message: err.Error()}
			s.writeResponse(c, &respBuf, &resp)
			return
		}
		resp := s.dispatch(&req, sc, qsc)
		s.served.Add(1)
		if !s.writeResponse(c, &respBuf, &resp) {
			return
		}
	}
}

// writeResponse frames and writes one response under the write deadline,
// reporting whether the connection is still usable.
func (s *Server) writeResponse(c net.Conn, buf *[]byte, resp *Response) bool {
	*buf = AppendResponse((*buf)[:0], resp)
	c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) //snb:errok deadline errors surface on the write itself
	_, err := c.Write(*buf)
	return err == nil
}

// dispatch runs one request through admission, deadline setup and query
// execution, producing its response. ServerMicros covers everything from
// arrival: admission wait included, so clients can separate server time
// from network time.
func (s *Server) dispatch(req *Request, sc *workload.Scratch, qsc *query.Scratch) Response {
	start := time.Now()
	resp := Response{Class: req.Class, Op: req.Op, ReqID: req.ReqID}
	finish := func() Response {
		resp.ServerMicros = uint64(time.Since(start).Microseconds())
		return resp
	}

	if req.Class == ClassPing {
		resp.Status = StatusOK
		if s.draining.Load() {
			// Pings stay cheap during drain but tell the client to go away.
			resp.Status = StatusRetryAfter
			resp.RetryAfterMs = 100
		}
		return finish()
	}
	if s.draining.Load() {
		resp.Status = StatusRetryAfter
		resp.RetryAfterMs = 100
		return finish()
	}

	g := s.gates[req.Class]

	// Overload policy: BI is shed first — and ad-hoc declarative queries
	// with it, since they share the BI lane. The interactive gate queueing
	// at all means the store is saturated with latency-sensitive work; an
	// arriving analytical scan would hold its slot for orders of magnitude
	// longer than a point read, so it is rejected outright with a hint
	// instead of competing.
	if (req.Class == ClassBI || req.Class == ClassQuery) && s.gates[ClassComplex].pressured() {
		g.shed.Add(1)
		resp.Status = StatusRetryAfter
		resp.RetryAfterMs = s.gates[ClassComplex].retryHintMs()
		return finish()
	}

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, deadline)
	defer cancel()

	switch g.acquire(ctx) {
	case admitShed:
		resp.Status = StatusRetryAfter
		resp.RetryAfterMs = g.retryHintMs()
		return finish()
	case admitTimeout:
		resp.Status = StatusTimeout
		return finish()
	}
	defer g.release()

	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	rows, err := s.runQuery(ctx, req, sc, qsc)
	switch {
	case err == nil:
		resp.Status = StatusOK
		resp.Rows = rows
	case errors.Is(err, store.ErrQueryCanceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		resp.Status = StatusTimeout
	case errors.Is(err, store.ErrStoreClosed):
		// Shutdown raced the request past the draining check: the store is
		// gone but the process may be replaced — retryable.
		resp.Status = StatusRetryAfter
		resp.RetryAfterMs = 100
	default:
		s.errored.Add(1)
		resp.Status = StatusError
		resp.Message = err.Error()
	}
	return finish()
}

// planFor returns the cached compiled plan for one query text, compiling
// and caching it on first sight. Plans are pure functions of the text
// (deterministic planner, no cardinality hints), so cached entries never
// go stale.
func (s *Server) planFor(text string) (*query.Plan, error) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if p, ok := s.planCache[text]; ok {
		return p, nil
	}
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	p, err := query.Compile(q)
	if err != nil {
		return nil, err
	}
	if len(s.planCache) >= 256 {
		s.planCache = make(map[string]*query.Plan)
	}
	s.planCache[text] = p
	return p, nil
}

// runQuery executes one admitted request on the view path (reads) or the
// MVCC commit path (writes).
func (s *Server) runQuery(ctx context.Context, req *Request, sc *workload.Scratch, qsc *query.Scratch) (uint32, error) {
	rnd := xrand.New(s.cfg.Seed, xrand.PurposeShortRead, req.Seed)
	switch req.Class {
	case ClassComplex:
		if req.Op < 1 || int(req.Op) > workload.NumComplexQueries {
			return 0, fmt.Errorf("complex query %d out of range", req.Op)
		}
		v, _, err := s.cfg.Store.AcquireViewChecked()
		if err != nil {
			return 0, err
		}
		spec := &workload.Complex[req.Op-1]
		p := spec.Bind(s.cfg.Pools, rnd)
		res, err := spec.RunViewCtx(ctx, v, sc, p)
		if err != nil {
			return 0, err
		}
		return uint32(len(res.Persons) + len(res.Messages)), nil

	case ClassShort:
		v, _, err := s.cfg.Store.AcquireViewChecked()
		if err != nil {
			return 0, err
		}
		persons := []ids.ID{}
		if n := len(s.cfg.Pools.Persons); n > 0 {
			persons = append(persons, s.cfg.Pools.Persons[rnd.Intn(n)])
		}
		stats, err := workload.RunShortReadChainCtx(ctx, v, workload.DefaultShortReadMix, rnd, persons, nil, nil)
		if err != nil {
			return 0, err
		}
		total := 0
		for _, n := range stats {
			total += n
		}
		return uint32(total), nil

	case ClassBI:
		if req.Op < 1 || int(req.Op) > bi.NumQueries {
			return 0, fmt.Errorf("BI query %d out of range", req.Op)
		}
		v, _, err := s.cfg.Store.AcquireViewChecked()
		if err != nil {
			return 0, err
		}
		spec := &bi.Registry[req.Op-1]
		p := spec.Bind(s.cfg.Pools, rnd)
		res, err := spec.RunViewCtx(ctx, v, sc, p)
		if err != nil {
			return 0, err
		}
		return uint32(res.Rows), nil

	case ClassQuery:
		plan, err := s.planFor(req.Query)
		if err != nil {
			return 0, err
		}
		v, _, err := s.cfg.Store.AcquireViewChecked()
		if err != nil {
			return 0, err
		}
		params := query.StandardParams(s.cfg.Pools, rnd)
		res, err := query.RunViewCtx(ctx, v, qsc, plan, params)
		if err != nil {
			return 0, err
		}
		return uint32(len(res.Rows)), nil

	case ClassWrite:
		// One small insert transaction per request; commits past a store
		// shutdown fail with ErrStoreClosed (mapped to RETRY_AFTER above),
		// never silently.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		idx := s.writeSeq.Add(1)
		id := ids.Compose(ids.KindPerson, serveWriteBucket+int64(idx>>16), uint32(idx&0xffff))
		tx := s.cfg.Store.Begin()
		err := tx.CreateNode(id, store.Props{
			store.NewProp(store.PropFirstName, store.String("served")),
			store.NewProp(store.PropCreationDate, store.Int64(int64(idx))),
		})
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err != nil {
			return 0, err
		}
		return 1, nil
	}
	return 0, fmt.Errorf("class %d not executable", req.Class)
}
