package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run records spans from the benchmark's own files, around each
// call it makes into a layer of the program; the program itself is not
// instrumented. A span nests inside the span that was open when it began,
// and every span of one client operation shares that operation's id.

type spanKind uint8

const (
	spOp spanKind = iota // one client operation: the root of its spans
	spDircacheStat
	spDircacheReadDir
	spDircacheWrite
	spNinepWalk
	spNinepStat
	spNinepClunk
	spNinepOpen
	spNinepRead
	spRouterStat
	spRouterWrite
	spRouterPump
	spShardStat
	spShardWrite
	spShardInvalidate
	numSpanKinds
)

// spanInfo names each span kind and the layer (repo module) it times.
var spanInfo = [numSpanKinds]struct{ name, layer string }{
	spOp:              {"bench.op", "bench"},
	spDircacheStat:    {"dircache.Process.Stat", "dircache"},
	spDircacheReadDir: {"dircache.Process.ReadDir", "dircache"},
	spDircacheWrite:   {"dircache.Process.write", "dircache"},
	spNinepWalk:       {"ninep.Fid.WalkPath", "internal/ninep"},
	spNinepStat:       {"ninep.Fid.Stat", "internal/ninep"},
	spNinepClunk:      {"ninep.Fid.Clunk", "internal/ninep"},
	spNinepOpen:       {"ninep.Fid.Open", "internal/ninep"},
	spNinepRead:       {"ninep.Fid.ReadDir", "internal/ninep"},
	spRouterStat:      {"shard.Router.Stat", "internal/shard"},
	spRouterWrite:     {"shard.Router.write", "internal/shard"},
	spRouterPump:      {"shard.Router.Pump", "internal/shard"},
	spShardStat:       {"shard.Local.Stat", "dircache"},
	spShardWrite:      {"shard.Local.write", "dircache"},
	spShardInvalidate: {"shard.Local.Invalidate", "dircache"},
}

type span struct {
	kind       spanKind
	parent     int32  // index of the enclosing span within its op, -1 for a root
	op         uint64 // id shared by every span of one operation
	start, end int64  // ns since the recorder's epoch
}

// spanTable holds totals per span kind.
type spanTable [numSpanKinds]spanStats

type spanStats struct {
	count           int64
	totalNs, selfNs int64
}

// maxKeptSpans bounds the spans one recorder keeps for writing out; spans
// past it still count in the per-kind totals.
const maxKeptSpans = 1 << 16

// recorder collects the spans of one client goroutine, so it takes no
// locks. A nil recorder records nothing, which is how untraced runs use it.
type recorder struct {
	epoch  time.Time
	client int
	opID   uint64
	cur    []span  // spans of the operation in progress
	stack  []int32 // open spans, innermost last
	child  []int64 // scratch: child time per span of the finished op
	stats  spanTable
	kept   []span
}

func newRecorder(client int, epoch time.Time) *recorder {
	return &recorder{epoch: epoch, client: client}
}

// begin opens a span of kind k inside the innermost open span.
func (r *recorder) begin(k spanKind) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.cur))
	r.cur = append(r.cur, span{kind: k, parent: parent, op: r.opID, start: int64(time.Since(r.epoch))})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span. Closing a
// root span finishes the operation.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.cur[id].end = int64(time.Since(r.epoch))
	r.stack = r.stack[:len(r.stack)-1]
	if len(r.stack) == 0 {
		r.finishOp()
	}
}

// finishOp adds the operation's spans to the per-kind totals. A span's
// self time is its duration minus the time its child spans cover.
func (r *recorder) finishOp() {
	r.child = r.child[:0]
	for range r.cur {
		r.child = append(r.child, 0)
	}
	for _, s := range r.cur {
		if s.parent >= 0 {
			r.child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.cur {
		st := &r.stats[s.kind]
		d := s.end - s.start
		st.count++
		st.totalNs += d
		st.selfNs += d - r.child[i]
	}
	if len(r.kept)+len(r.cur) <= maxKeptSpans {
		r.kept = append(r.kept, r.cur...)
	}
	r.cur = r.cur[:0]
	r.opID++
}

// spanTotals sums the per-kind totals of several recorders.
func spanTotals(recs []*recorder) spanTable {
	var out spanTable
	for _, r := range recs {
		for k, st := range r.stats {
			out[k].count += st.count
			out[k].totalNs += st.totalNs
			out[k].selfNs += st.selfNs
		}
	}
	return out
}

// meanNs returns the mean duration of the spans of kind k, 0 if none.
func (t *spanTable) meanNs(k spanKind) float64 {
	if t[k].count == 0 {
		return 0
	}
	return float64(t[k].totalNs) / float64(t[k].count)
}

// layerSelfNs sums self time by layer.
func layerSelfNs(t spanTable) map[string]int64 {
	out := map[string]int64{}
	for k, st := range t {
		if st.count > 0 {
			out[spanInfo[k].layer] += st.selfNs
		}
	}
	return out
}

// printLayerSelf prints each layer's self time per client operation.
func printLayerSelf(w io.Writer, t spanTable, ops int64) {
	by := layerSelfNs(t)
	layers := make([]string, 0, len(by))
	for l := range by {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintln(w, "  self time by layer, ns per operation (traced run):")
	for _, l := range layers {
		fmt.Fprintf(w, "    %-20s %12.1f\n", l, float64(by[l])/float64(max(ops, 1)))
	}
}

// writeSpans writes the kept spans, one JSON object a line.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		base, lastOp := 0, ^uint64(0)
		for i, s := range r.kept {
			if s.op != lastOp {
				base, lastOp = i, s.op
			}
			err := enc.Encode(struct {
				Client  int    `json:"client"`
				Op      uint64 `json:"op"`
				ID      int    `json:"id"`
				Parent  int32  `json:"parent"`
				Name    string `json:"name"`
				StartNs int64  `json:"start_ns"`
				EndNs   int64  `json:"end_ns"`
			}{r.client, s.op, i - base, s.parent, spanInfo[s.kind].name, s.start, s.end})
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
