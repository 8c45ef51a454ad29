package profile

// This file is the fast path of the profile wire format. Brainy's input is
// one fixed-schema record per container, so the decoder does not need
// reflection: parseWire reads Profile and WindowRecord records, as JSON
// lines or one JSON array, in exactly the grammar WriteTrace, WriteWindows
// and SnapshotExporter emit. Known keys appear at most once each and
// missing keys read as zero; strings are ASCII without escapes; numbers take
// the forms encoding/json accepts for the field's type; Count and Cost
// arrays have all NumOps entries; nothing but whitespace follows a closing
// ']'. Any other body (an escape, a non-ASCII byte, null, an unknown,
// repeated or case-folded key, a short array, an overflowing number, bytes
// after ']'), and any input longer than maxFastBody, is decoded from its
// first byte by decodeStream, which stays the only path for such input and
// the reference the fuzzers compare against. The input alone picks the
// path.

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/opstats"
)

const (
	// maxFastBody is the longest input the fast path parses. decodeBody
	// reads at most one byte more before the first callback; a longer
	// input streams through decodeStream, holding one record at a time
	// past this prefix.
	maxFastBody = 1 << 20
	// maxFastRecords caps the records the fast path holds at once. It
	// parses a whole body before the first callback, while the stream
	// decoder holds one record and stops when a callback says so; a body
	// of more records takes the stream path, so a body packed with tiny
	// records cannot make the fast path allocate hundreds of bytes per
	// byte read.
	maxFastRecords = 4096
)

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody hands each record of r to fn through view. It reads at most
// maxFastBody+1 bytes first: an input that ends within them and that
// parseWire accepts is delivered from the parsed records. Any other input,
// a longer one, and one whose read fails go to decodeStream from the first
// byte, the bytes already read replayed ahead of the rest, so encoding/json
// alone decides the values, the error and how far a failing stream gets,
// and no record reaches fn twice. The read is bounded, so every buffer,
// at most about twice maxFastBody, goes back to the pool.
func decodeBody[T any](r io.Reader, what string, fn func(*T) error, view func(*WindowRecord) *T) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		bodyPool.Put(buf)
	}()
	_, err := buf.ReadFrom(io.LimitReader(r, maxFastBody+1))
	prefix := buf.Bytes()
	switch {
	case err != nil:
		// Replay the bytes read and then the read's error: the stream
		// decoder sees what it would have seen reading r itself.
		return decodeStream(io.MultiReader(bytes.NewReader(prefix), errReader{err}), what, fn)
	case len(prefix) > maxFastBody:
		return decodeStream(io.MultiReader(bytes.NewReader(prefix), r), what, fn)
	}
	recs, ok := parseWire(prefix)
	if !ok {
		return decodeStream(bytes.NewReader(prefix), what, fn)
	}
	for i := range recs {
		if err := fn(view(&recs[i])); err != nil {
			return err
		}
	}
	return nil
}

// errReader returns err on every read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// The keys of each record level, in the order the writers emit them. A
// key's index is its bit in the object's seen set.
var (
	recordKeys = []string{
		"context", "kind", "order_aware", "stats", "hw", "line_bytes", "cycles",
		"instance", "window_seq", "window_start_op", "window_end_op", "window_len",
	}
	statsKeys = []string{"Count", "Cost", "Resizes", "Rehashes", "Rotations", "MaxLen", "ElemSize"}
	hwKeys    = []string{
		"Cycles", "Reads", "Writes", "L1Accesses", "L1Misses", "L2Accesses", "L2Misses",
		"Branches", "Mispredicts", "TLBAccesses", "TLBMisses", "Allocs", "Frees", "BytesAlloced",
	}
)

// parseWire parses a whole body of window records (a profile record is a
// window record without the window_* keys, which DecodeRecords then does
// not show). It reports false for any body outside the fast grammar and
// for one of more than maxFastRecords records.
func parseWire(b []byte) ([]WindowRecord, bool) {
	p := wireParser{b: b}
	p.ws()
	if p.i == len(b) {
		return nil, true
	}
	// One record per line is the writers' form; the count sizes the slice.
	recs := make([]WindowRecord, 0, min(bytes.Count(b, []byte{'\n'})+1, maxFastRecords))
	next := func() bool {
		if len(recs) == maxFastRecords {
			return false
		}
		recs = append(recs, WindowRecord{})
		return p.record(&recs[len(recs)-1])
	}
	if !p.next('[') {
		for p.i < len(b) {
			if !next() {
				return nil, false
			}
			p.ws()
		}
		return recs, true
	}
	if !p.next(']') {
		for {
			if !next() {
				return nil, false
			}
			if p.next(']') {
				break
			}
			if !p.next(',') {
				return nil, false
			}
		}
	}
	p.ws()
	return recs, p.i == len(b)
}

// wireParser is a cursor over one body.
type wireParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *wireParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next consumes c, after optional whitespace, if it comes next.
func (p *wireParser) next(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] != c {
		p.ws() // the writers put no whitespace inside a record
	}
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses one object whose keys are all in keys, each at most once,
// calling field with the key's index and the cursor at its value.
func (p *wireParser) object(keys []string, field func(k int) bool) bool {
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return true
	}
	var seen uint32
	for {
		k, ok := p.key(keys, &seen)
		if !ok || !field(k) {
			return false
		}
		if p.next('}') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// key reads a quoted key and the ':' after it and returns its index in
// keys. A key with an escape never equals one of keys, so it needs no
// check of its own.
func (p *wireParser) key(keys []string, seen *uint32) (int, bool) {
	if !p.next('"') {
		return 0, false
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != '"' {
		p.i++
	}
	if p.i == len(p.b) {
		return 0, false
	}
	name := p.b[start:p.i]
	p.i++
	for k, s := range keys {
		if string(name) == s {
			if *seen&(1<<k) != 0 {
				return 0, false
			}
			*seen |= 1 << k
			return k, p.next(':')
		}
	}
	return 0, false
}

// record parses one record into w, which must be zero.
func (p *wireParser) record(w *WindowRecord) bool {
	return p.object(recordKeys, func(k int) bool {
		switch k {
		case 0:
			return p.str(&w.Context)
		case 1:
			return p.int((*int)(&w.Kind))
		case 2:
			return p.bool(&w.OrderAware)
		case 3:
			return p.stats(&w.Stats)
		case 4:
			return p.hw(w)
		case 5:
			return p.int(&w.LineBytes)
		case 6:
			return p.float(&w.Cycles)
		case 7:
			return p.int(&w.Instance)
		case 8:
			return p.int(&w.Seq)
		case 9:
			return p.uint(&w.StartOp)
		case 10:
			return p.uint(&w.EndOp)
		default:
			return p.int(&w.Len)
		}
	})
}

func (p *wireParser) stats(s *opstats.Stats) bool {
	rest := [...]*uint64{&s.Resizes, &s.Rehashes, &s.Rotations, &s.MaxLen, &s.ElemSize}
	return p.object(statsKeys, func(k int) bool {
		switch k {
		case 0:
			return p.uints(s.Count[:])
		case 1:
			return p.uints(s.Cost[:])
		default:
			return p.uint(rest[k-2])
		}
	})
}

func (p *wireParser) hw(w *WindowRecord) bool {
	h := &w.HW
	rest := [...]*uint64{&h.Reads, &h.Writes, &h.L1Accesses, &h.L1Misses, &h.L2Accesses, &h.L2Misses,
		&h.Branches, &h.Mispredicts, &h.TLBAccesses, &h.TLBMisses, &h.Allocs, &h.Frees, &h.BytesAlloced}
	return p.object(hwKeys, func(k int) bool {
		if k == 0 {
			return p.float(&h.Cycles)
		}
		return p.uint(rest[k-1])
	})
}

// uints parses an array of exactly len(dst) unsigned integers.
func (p *wireParser) uints(dst []uint64) bool {
	if !p.next('[') {
		return false
	}
	for j := range dst {
		if j > 0 && !p.next(',') {
			return false
		}
		if !p.uint(&dst[j]) {
			return false
		}
	}
	return p.next(']')
}

// str parses a string of printable ASCII without escapes.
func (p *wireParser) str(dst *string) bool {
	if !p.next('"') {
		return false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			*dst = string(p.b[start:p.i])
			p.i++
			return true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return false
		}
	}
	return false
}

func (p *wireParser) bool(dst *bool) bool {
	p.ws()
	switch {
	case bytes.HasPrefix(p.b[p.i:], []byte("true")):
		*dst = true
		p.i += 4
	case bytes.HasPrefix(p.b[p.i:], []byte("false")):
		p.i += 5
	default:
		return false
	}
	return true
}

// digits reads a JSON integer's digits without sign: "0" or a nonzero digit
// and more digits. It reports false on no digit or on uint64 overflow. A
// leading zero followed by a digit is left for the caller's next token
// check to refuse.
func (p *wireParser) digits() (uint64, bool) {
	start := p.i
	var n uint64
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
		p.i++
		if n == 0 {
			break // a leading zero is the whole integer part
		}
	}
	return n, p.i > start
}

func (p *wireParser) uint(dst *uint64) bool {
	p.ws()
	n, ok := p.digits()
	*dst = n
	return ok
}

func (p *wireParser) int(dst *int) bool {
	p.ws()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	n, ok := p.digits()
	switch {
	case !ok:
		return false
	case neg && n <= uint64(math.MaxInt)+1:
		*dst = int(-n)
	case !neg && n <= math.MaxInt:
		*dst = int(n)
	default:
		return false
	}
	return true
}

// float parses a JSON number and converts it as encoding/json does, with
// strconv.ParseFloat; a number out of float64 range is refused.
func (p *wireParser) float(dst *float64) bool {
	p.ws()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	intStart := p.i
	if !p.skipDigits() || p.b[intStart] == '0' && p.i-intStart > 1 {
		return false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.skipDigits() {
			return false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.skipDigits() {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	*dst = f
	return err == nil
}

// skipDigits consumes one or more decimal digits.
func (p *wireParser) skipDigits() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}
