package serve

// This file renders the two hot replies, AdviseResponse and
// ProfilesResponse, by appending to a byte slice instead of walking them by
// reflection. The bytes are json.Encoder's with SetIndent("", "  "): keys
// in field order, HTML-escaped strings, its float format, omitempty on
// "skipped" and "explanation", null for a nil slice, [] for an empty one,
// and the trailing newline. A string that needs any escape is handed to
// encoding/json, and a reply holding a non-finite float goes to writeJSON
// whole, so the bytes stay encoding/json's; FuzzReplyMatchesEncoder holds
// the writer to it.

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/drift"
)

// replyWriter appends one indented JSON value. first is true right after
// an opening bracket, before the container's first member.
type replyWriter struct {
	b     []byte
	depth int
	first bool
	ok    bool // false once a float was not finite
}

func (w *replyWriter) newline() {
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, ' ', ' ')
	}
}

func (w *replyWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

// close ends a container; an empty one stays "[]" or "{}".
func (w *replyWriter) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.b = append(w.b, c)
	w.first = false
}

// elem starts an array element.
func (w *replyWriter) elem() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

// key starts an object member.
func (w *replyWriter) key(k string) {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':', ' ')
}

func (w *replyWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

func (w *replyWriter) int(n int64)   { w.b = strconv.AppendInt(w.b, n, 10) }
func (w *replyWriter) uint(n uint64) { w.b = strconv.AppendUint(w.b, n, 10) }
func (w *replyWriter) bool(v bool)   { w.b = strconv.AppendBool(w.b, v) }

// float formats f as encoding/json does: 'f' format, or 'e' below 1e-6 and
// from 1e21 on, with a one-digit negative exponent left unpadded.
func (w *replyWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// array writes a slice: null when nil, otherwise each element through elem.
func array[T any](w *replyWriter, s []T, elem func(*T)) {
	if s == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for i := range s {
		w.elem()
		elem(&s[i])
	}
	w.close(']')
}

func (w *replyWriter) suggestion(s *core.Suggestion) {
	w.open('{')
	w.key("context")
	w.str(s.Context)
	w.key("original")
	w.int(int64(s.Original))
	w.key("suggested")
	w.int(int64(s.Suggested))
	w.key("confidence")
	w.float(s.Confidence)
	w.key("cycles_pct")
	w.float(s.CyclesPct)
	w.key("replace")
	w.bool(s.Replace)
	w.key("mem_original")
	w.uint(s.MemOriginal)
	w.key("mem_suggested")
	w.uint(s.MemSuggested)
	w.key("mem_delta_pct")
	w.float(s.MemDeltaPct)
	if s.Explanation != nil {
		w.key("explanation")
		w.open('{')
		w.key("probs")
		array(w, s.Explanation.Probs, func(kp *core.KindProb) {
			w.open('{')
			w.key("kind")
			w.int(int64(kp.Kind))
			w.key("prob")
			w.float(kp.Prob)
			w.close('}')
		})
		w.close('}')
	}
	w.close('}')
}

// appendAdvise appends r as writeJSON would render it; false means r holds
// a float encoding/json refuses.
func appendAdvise(b []byte, r *AdviseResponse) ([]byte, bool) {
	w := replyWriter{b: b, ok: true}
	w.open('{')
	w.key("arch")
	w.str(r.Arch)
	w.key("profiles")
	w.int(int64(r.Profiles))
	w.key("suggestions")
	array(&w, r.Suggestions, w.suggestion)
	if len(r.Skipped) > 0 {
		w.key("skipped")
		array(&w, r.Skipped, func(s *string) { w.str(*s) })
	}
	w.key("plan")
	array(&w, r.Plan, func(e *core.PlanEntry) {
		w.open('{')
		w.key("context")
		w.str(e.Context)
		w.key("from")
		w.str(e.From)
		w.key("to")
		w.str(e.To)
		w.key("confidence")
		w.float(e.Confidence)
		w.key("cycles_pct")
		w.float(e.CyclesPct)
		w.key("mem_delta_pct")
		w.float(e.MemDeltaPct)
		w.close('}')
	})
	w.close('}')
	return append(w.b, '\n'), w.ok
}

// appendProfiles appends r as writeJSON would render it; false means r
// holds a float encoding/json refuses.
func appendProfiles(b []byte, r *ProfilesResponse) ([]byte, bool) {
	w := replyWriter{b: b, ok: true}
	w.open('{')
	w.key("arch")
	w.str(r.Arch)
	w.key("accepted")
	w.int(int64(r.Accepted))
	w.key("instances")
	w.int(int64(r.Instances))
	w.key("out_of_order")
	w.int(int64(r.OutOfOrder))
	w.key("unadvised")
	w.int(int64(r.Unadvised))
	w.key("drift")
	array(&w, r.Drift, func(e *drift.Event) {
		w.open('{')
		w.key("instance_key")
		w.str(e.InstanceKey)
		w.key("context")
		w.str(e.Context)
		w.key("instance")
		w.int(int64(e.Instance))
		w.key("window_seq")
		w.int(int64(e.Seq))
		w.key("from")
		w.int(int64(e.From))
		w.key("to")
		w.int(int64(e.To))
		w.key("confidence")
		w.float(e.Confidence)
		w.key("votes")
		w.int(int64(e.Votes))
		w.close('}')
	})
	w.close('}')
	return append(w.b, '\n'), w.ok
}

// replyPool recycles reply buffers; ones grown past maxPooledReply are
// dropped so a rare large reply does not stay pinned.
var replyPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

const maxPooledReply = 256 << 10

// writeReply answers 200 with v rendered by render, or through writeJSON
// when render refuses it.
func writeReply[T any](w http.ResponseWriter, v *T, render func([]byte, *T) ([]byte, bool)) {
	bp := replyPool.Get().(*[]byte)
	b, ok := render((*bp)[:0], v)
	if ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b) // the client is gone; nothing is left to tell it
	} else {
		writeJSON(w, http.StatusOK, v)
	}
	if cap(b) <= maxPooledReply {
		*bp = b[:0]
		replyPool.Put(bp)
	}
}
