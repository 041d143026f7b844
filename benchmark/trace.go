package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// Span names: one per call the benchmark makes into a layer. Spans are
// recorded here, around the calls, never inside the program.
const (
	spanRun uint8 = iota
	spanSegment
	spanStoreGet
	spanStorePut
	spanStoreRemove
	spanStoreScan
	spanClientGet
	spanClientPut
	spanClientDel
	spanReplay
	spanSkiplistGet
	spanSlabPut
	spanSlabGet
	spanWireReqEncode
	spanWireReqDecode
	spanWireRespEncode
	spanWireRespDecode
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"run", "segment",
	"store.get", "store.put", "store.remove", "store.scan",
	"client.get", "client.put", "client.del",
	"replay", "skiplist.get", "slab.put", "slab.get",
	"wire.req_encode", "wire.req_decode", "wire.resp_encode", "wire.resp_decode",
}

// storeSpanOfKind and clientSpanOfKind map an op kind to the span of the
// call an embedded worker, or a client connection, makes for it.
var storeSpanOfKind = [numKinds]uint8{OpGet: spanStoreGet, OpPut: spanStorePut, OpRemove: spanStoreRemove, OpScan: spanStoreScan}

var clientSpanOfKind = [numKinds]uint8{OpGet: spanClientGet, OpPut: spanClientPut, OpRemove: spanClientDel}

// span is one timed call: name, start, end, the span that caused it and
// the request it belongs to (the op's index in its driver's segment).
// A span's id is its position in the trace.
type span struct {
	Name   uint8
	Driver uint8
	Parent int32
	Req    uint32
	Start  int64 // ns since the process's clock base
	End    int64
}

// trace is the traced pass's span store. Spans stay in memory until the
// run ends; drivers append to private slices that are folded in between
// segments, so recording takes no lock.
type trace struct {
	spans []span
}

// open starts a span and returns its id; close it with end.
func (t *trace) open(name uint8, parent int32) int32 {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now()})
	return int32(len(t.spans) - 1)
}

func (t *trace) end(id int32) { t.spans[id].End = now() }

// fold moves a driver's spans into the trace.
func (t *trace) fold(rec *recorder) {
	t.spans = append(t.spans, rec.spans...)
	rec.spans = rec.spans[:0]
}

// spanSummary aggregates the spans of one name. Self is the total minus
// the part covered by child spans: time the layer spent in itself.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// summary aggregates every span in one pass, by span name.
func (t *trace) summary() *[numSpanNames]spanSummary {
	agg := new([numSpanNames]spanSummary)
	for _, s := range t.spans {
		a := &agg[s.Name]
		a.Count++
		a.TotalNs += s.End - s.Start
		a.SelfNs += s.End - s.Start
		if s.Parent >= 0 {
			// Every driver has its own segment span, so the children of
			// one parent never overlap.
			agg[t.spans[s.Parent].Name].SelfNs -= s.End - s.Start
		}
	}
	for i := range agg {
		if a := &agg[i]; a.Count > 0 {
			a.MeanNs = float64(a.TotalNs) / float64(a.Count)
		}
	}
	return agg
}

// traceFileSpans bounds the raw spans written out; the summary covers
// all of them.
const traceFileSpans = 5000

// write stores the run's counters, the per-name summary and the first
// raw spans as JSON under dir.
func (t *trace) write(dir, workload string, seed uint64, sum *[numSpanNames]spanSummary, counters map[string]Metric) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type rawSpan struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Parent int32  `json:"parent"`
		Driver uint8  `json:"driver"`
		Req    uint32 `json:"req"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	raw := make([]rawSpan, 0, traceFileSpans)
	for i, s := range t.spans {
		if i == traceFileSpans {
			break
		}
		raw = append(raw, rawSpan{i, spanNames[s.Name], s.Parent, s.Driver, s.Req, s.Start, s.End})
	}
	byName := make(map[string]spanSummary)
	for i, a := range sum {
		if a.Count > 0 {
			byName[spanNames[i]] = a
		}
	}
	doc := struct {
		Workload string                 `json:"workload"`
		Seed     uint64                 `json:"seed"`
		Spans    int                    `json:"spans_recorded"`
		Summary  map[string]spanSummary `json:"span_summary"`
		Counters map[string]Metric      `json:"counters"`
		First    []rawSpan              `json:"first_spans"`
	}{workload, seed, len(t.spans), byName, counters, raw}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, data, 0o644)
}
