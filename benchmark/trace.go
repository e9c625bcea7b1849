package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// A span is one timed call into a layer. Spans of one op share its op id;
// parent is the id of the span that made the call (0 for an op).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`

	tr *tracer
}

// tracer keeps one goroutine's spans in memory until the run ends. A nil
// tracer records nothing, so the untraced path pays one nil check per call.
type tracer struct {
	epoch  time.Time
	spans  []*span
	nextOp int
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) start(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Name: name, StartNs: int64(time.Since(t.epoch)), tr: t}
	if parent != nil {
		s.Parent, s.Op = parent.ID, parent.Op
	} else {
		t.nextOp++
		s.Op = t.nextOp
	}
	t.spans = append(t.spans, s)
	return s
}

func (s *span) end() {
	if s != nil {
		s.EndNs = int64(time.Since(s.tr.epoch))
	}
}

// mergeTracers renumbers the spans of several tracers (one per session) into
// one id space, in tracer order.
func mergeTracers(ts ...*tracer) []*span {
	var out []*span
	idBase, opBase := 0, 0
	for _, t := range ts {
		for _, s := range t.spans {
			c := *s
			c.ID += idBase
			if c.Parent != 0 {
				c.Parent += idBase
			}
			c.Op += opBase
			out = append(out, &c)
		}
		idBase += len(t.spans)
		opBase += t.nextOp
	}
	return out
}

// spanTotals is what the layer metrics are derived from: per span name, how
// many there were and their self time, a span's duration minus the part of
// it that its children cover.
type spanTotals struct {
	count  int
	selfNs int64
}

func selfTimes(spans []*span) map[string]spanTotals {
	children := map[int][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanTotals{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		t := out[s.Name]
		t.count++
		t.selfNs += s.EndNs - s.StartNs - covered
		out[s.Name] = t
	}
	return out
}

type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Spans    []*span `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []*span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
