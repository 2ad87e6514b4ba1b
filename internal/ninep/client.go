package ninep

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dircache/internal/telemetry"
)

// Client is a minimal 9P2000 client for tests, smoke checks, the
// connstorm benchmark, and the sharded tier's wire leg: one connection,
// synchronous RPCs, fids allocated by a counter. An internal mutex
// serializes RPCs, so several goroutines may share one Client (a shard
// router interleaving walks with peer shootdowns); for throughput work
// drive one Client per goroutine (that is the point of a connection
// storm).
type Client struct {
	nc      net.Conn
	msize   uint32
	tag     uint16
	nextFid uint32
	rpcs    atomic.Int64

	mu sync.Mutex // serializes rpc (tag allocation + write + read)

	trace bool                 // server negotiated the dctrace extension
	shard bool                 // server negotiated the dcshard extension
	tel   *telemetry.Telemetry // client-side span sink (SetTelemetry)
}

// Dial connects to a dcserve address and negotiates the protocol
// version, offering the dctrace extension. A stock 9P2000 server
// answers "9P2000" and the client silently runs untraced.
func Dial(addr string) (*Client, error) {
	return dial(addr, VersionTrace)
}

// DialShard connects offering the dcshard extension — the remote
// shootdown the sharded tier's wire leg rides on — and fails if the server does not speak it (a shard peer that
// cannot propagate invalidations is not a peer).
func DialShard(addr string) (*Client, error) {
	c, err := dial(addr, VersionShard)
	if err != nil {
		return nil, err
	}
	if !c.shard {
		c.Close()
		return nil, fmt.Errorf("server does not speak %q", VersionShard)
	}
	return c, nil
}

func dial(addr, version string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{nc: nc, msize: DefaultMsize}
	resp, err := c.rpc(&Fcall{Type: MsgTversion, Tag: NoTag, Msize: DefaultMsize, Version: version})
	if err != nil {
		nc.Close()
		return nil, err
	}
	switch resp.Version {
	case VersionShard:
		c.trace = true
		c.shard = true
	case VersionTrace:
		c.trace = true
	case Version:
		// plain 9P2000 peer: fall back, never send trace ids
	default:
		nc.Close()
		return nil, fmt.Errorf("server speaks %q, want %q", resp.Version, Version)
	}
	c.msize = resp.Msize
	return c, nil
}

// SetTelemetry attaches a span sink: Walk/Open/Stat RPCs then open
// client-origin spans (subject to the sink's sampling rate) carrying a
// wire trace id the server's span stitches to — when the server
// negotiated dctrace. Pass nil to detach.
func (c *Client) SetTelemetry(tel *telemetry.Telemetry) { c.tel = tel }

// Traced reports whether the server negotiated the dctrace extension.
func (c *Client) Traced() bool { return c.trace }

// startSpan opens a client RPC span and allocates the wire trace id it
// carries (span.RemoteID). Nil when tracing is off or unsampled.
func (c *Client) startSpan(op, path string) (*telemetry.WalkTrace, time.Time) {
	if !c.trace || !c.tel.On() || !c.tel.Sampled() {
		return nil, time.Time{}
	}
	wid := c.tel.NextTraceID()
	return c.tel.StartSpan("client", op, path, wid), time.Now()
}

// finishSpan completes a client span opened by startSpan.
func (c *Client) finishSpan(tr *telemetry.WalkTrace, err error, t0 time.Time) {
	if tr == nil {
		return
	}
	c.tel.FinishSpan(tr, err, time.Since(t0))
}

// Close drops the connection (the server clunks all fids).
func (c *Client) Close() error { return c.nc.Close() }

// RPCs reports how many requests this client has sent.
func (c *Client) RPCs() int64 { return c.rpcs.Load() }

// Msize reports the negotiated message size.
func (c *Client) Msize() uint32 { return c.msize }

// rpc sends one request and reads its response, mapping Rerror back into
// an fsapi.Errno so errors.Is works across the wire. The mutex makes the
// Client shareable across goroutines; requests are not pipelined from
// this client (the server's dispatcher pipelines across clients).
func (c *Client) rpc(req *Fcall) (*Fcall, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rpcs.Add(1)
	if req.Tag == 0 && req.Type != MsgTversion {
		c.tag++
		if c.tag == NoTag {
			c.tag = 1
		}
		req.Tag = c.tag
	}
	out, err := Marshal(req)
	if err != nil {
		return nil, err
	}
	if _, err := c.nc.Write(out); err != nil {
		return nil, err
	}
	body, err := ReadMsg(c.nc, MaxMsize)
	if err != nil {
		return nil, err
	}
	resp, err := Unmarshal(body)
	if err != nil {
		return nil, err
	}
	if resp.Tag != req.Tag {
		return nil, fmt.Errorf("response tag %d for request tag %d", resp.Tag, req.Tag)
	}
	if resp.Type == MsgRerror {
		return nil, EnameErrno(resp.Ename)
	}
	if resp.Type != req.Type+1 {
		return nil, fmt.Errorf("response %s to request %s", MsgName(resp.Type), MsgName(req.Type))
	}
	return resp, nil
}

// Shoot applies a remote invalidation for path on the server ("" or "/"
// drops everything), returning the dentry count discarded (dcshard only).
func (c *Client) Shoot(path string) (int, error) {
	resp, err := c.rpc(&Fcall{Type: MsgTshoot, Name: path})
	if err != nil {
		return 0, err
	}
	return int(resp.Count), nil
}

// Fid is a client-side fid handle.
type Fid struct {
	c      *Client
	n      uint32
	Qid    Qid
	iounit uint32
}

func (c *Client) fid() uint32 {
	c.mu.Lock()
	n := c.nextFid
	c.nextFid++
	c.mu.Unlock()
	return n
}

// Attach establishes a fid at the aname subtree root ("" = "/") under
// uname's credentials.
func (c *Client) Attach(uname, aname string) (*Fid, error) {
	n := c.fid()
	resp, err := c.rpc(&Fcall{Type: MsgTattach, Fid: n, Afid: NoFid, Uname: uname, Aname: aname})
	if err != nil {
		return nil, err
	}
	return &Fid{c: c, n: n, Qid: resp.Qid}, nil
}

// Walk derives a new fid by walking names from f. Empty names clones f.
// A partial walk (fewer qids than names) is reported as an error carrying
// how far it got.
func (f *Fid) Walk(names ...string) (*Fid, error) {
	span, t0 := f.c.startSpan("Twalk", strings.Join(names, "/"))
	nf, err := f.walk(span, names)
	f.c.finishSpan(span, err, t0)
	return nf, err
}

func (f *Fid) walk(span *telemetry.WalkTrace, names []string) (*Fid, error) {
	c := f.c
	cur := f
	owned := false // does cur need clunking on error?
	for {
		batch := names
		if len(batch) > MaxWalkNames {
			batch = batch[:MaxWalkNames]
		}
		n := c.fid()
		req := &Fcall{Type: MsgTwalk, Fid: cur.n, Newfid: n, Wname: batch}
		if span != nil {
			req.TraceID = span.RemoteID
		}
		r0 := time.Now()
		resp, err := c.rpc(req)
		span.EventDur(telemetry.EvRPC, fmt.Sprintf("Twalk %d names", len(batch)), time.Since(r0))
		if err == nil && len(resp.Wqid) < len(batch) {
			// Partial walk: Rwalk reports how far it got but swallows why.
			// Re-ask for the failing name alone from a fid parked at the
			// partial point — a first-name failure comes back as Rerror
			// with the errno intact.
			err = c.walkErr(cur.n, batch, len(resp.Wqid))
		}
		if owned {
			cur.Clunk()
		}
		if err != nil {
			return nil, err
		}
		q := f.Qid
		if len(resp.Wqid) > 0 {
			q = resp.Wqid[len(resp.Wqid)-1]
		}
		cur = &Fid{c: c, n: n, Qid: q}
		owned = true
		names = names[len(batch):]
		if len(names) == 0 {
			return cur, nil
		}
	}
}

// walkErr recovers the errno behind a partial walk that resolved ok of
// the batch names from fid.
func (c *Client) walkErr(fid uint32, batch []string, ok int) error {
	pn := c.fid()
	if _, err := c.rpc(&Fcall{Type: MsgTwalk, Fid: fid, Newfid: pn, Wname: batch[:ok]}); err != nil {
		return fmt.Errorf("walk stopped after %d of %d names", ok, len(batch))
	}
	_, err := c.rpc(&Fcall{Type: MsgTwalk, Fid: pn, Newfid: c.fid(), Wname: batch[ok : ok+1]})
	c.rpc(&Fcall{Type: MsgTclunk, Fid: pn})
	if err == nil {
		// The tree changed between the two walks; report the stall.
		return fmt.Errorf("walk stopped after %d of %d names", ok, len(batch))
	}
	return err
}

// WalkPath walks a "/"-separated relative path from f.
func (f *Fid) WalkPath(path string) (*Fid, error) {
	var names []string
	for _, seg := range strings.Split(path, "/") {
		if seg != "" {
			names = append(names, seg)
		}
	}
	return f.Walk(names...)
}

// Open prepares the fid for I/O.
func (f *Fid) Open(mode uint8) error {
	span, t0 := f.c.startSpan("Topen", "")
	req := &Fcall{Type: MsgTopen, Fid: f.n, Mode: mode}
	if span != nil {
		req.TraceID = span.RemoteID
	}
	resp, err := f.c.rpc(req)
	span.EventDur(telemetry.EvRPC, "Topen", time.Since(t0))
	f.c.finishSpan(span, err, t0)
	if err != nil {
		return err
	}
	f.Qid = resp.Qid
	f.iounit = resp.Iounit
	return nil
}

// Create makes name under the directory fid and leaves f open on it.
func (f *Fid) Create(name string, perm uint32, mode uint8) error {
	resp, err := f.c.rpc(&Fcall{Type: MsgTcreate, Fid: f.n, Name: name, Perm: perm, Mode: mode})
	if err != nil {
		return err
	}
	f.Qid = resp.Qid
	f.iounit = resp.Iounit
	return nil
}

// Read reads up to len(b) bytes at offset.
func (f *Fid) Read(b []byte, offset uint64) (int, error) {
	count := uint32(len(b))
	if max := f.c.msize - IOHeaderSize; count > max {
		count = max
	}
	resp, err := f.c.rpc(&Fcall{Type: MsgTread, Fid: f.n, Offset: offset, Count: count})
	if err != nil {
		return 0, err
	}
	return copy(b, resp.Data), nil
}

// ReadAll drains the fid from offset 0 (file or directory payload).
func (f *Fid) ReadAll() ([]byte, error) {
	var out []byte
	buf := make([]byte, f.c.msize-IOHeaderSize)
	for {
		n, err := f.Read(buf, uint64(len(out)))
		if err != nil {
			return out, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, buf[:n]...)
	}
}

// Write writes b at offset.
func (f *Fid) Write(b []byte, offset uint64) (int, error) {
	resp, err := f.c.rpc(&Fcall{Type: MsgTwrite, Fid: f.n, Offset: offset, Data: b})
	if err != nil {
		return 0, err
	}
	return int(resp.Count), nil
}

// Stat fetches the fid's metadata.
func (f *Fid) Stat() (Stat, error) {
	span, t0 := f.c.startSpan("Tstat", "")
	req := &Fcall{Type: MsgTstat, Fid: f.n}
	if span != nil {
		req.TraceID = span.RemoteID
	}
	resp, err := f.c.rpc(req)
	span.EventDur(telemetry.EvRPC, "Tstat", time.Since(t0))
	f.c.finishSpan(span, err, t0)
	if err != nil {
		return Stat{}, err
	}
	return resp.Stat, nil
}

// Wstat applies a metadata change (start from EmptyStat and set fields).
func (f *Fid) Wstat(st Stat) error {
	_, err := f.c.rpc(&Fcall{Type: MsgTwstat, Fid: f.n, Stat: st})
	return err
}

// ReadDir reads the whole directory through an open-for-read fid and
// parses the stat records.
func (f *Fid) ReadDir() ([]Stat, error) {
	buf, err := f.ReadAll()
	if err != nil {
		return nil, err
	}
	return UnmarshalStats(buf)
}

// Clunk releases the fid.
func (f *Fid) Clunk() error {
	_, err := f.c.rpc(&Fcall{Type: MsgTclunk, Fid: f.n})
	return err
}

// Remove deletes the object and clunks the fid.
func (f *Fid) Remove() error {
	_, err := f.c.rpc(&Fcall{Type: MsgTremove, Fid: f.n})
	return err
}
