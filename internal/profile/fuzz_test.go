package profile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/machine"
)

// wireSeeds are the decoder fuzzers' seeds: the writers' own output, which
// the fast parser must take, and the inputs at the edge of its grammar,
// which encoding/json must decode alone.
func wireSeeds(tb testing.TB) []string {
	var trace, windows, exported bytes.Buffer
	m := machine.New(machine.Core2())
	ring := NewWindowRing(8)
	exp := NewSnapshotExporter(&exported)
	var profiles []Profile
	for i, kind := range []adt.Kind{adt.KindVector, adt.KindSet, adt.KindHashMap} {
		c := NewContainer(kind, m, 8, fmt.Sprintf("seed/site%d", i), i == 1)
		c.EnableWindows(24, i, MultiWindowSink(ring, exp))
		for k := uint64(0); k < 20; k++ {
			c.Insert(k * 7)
			c.Find(k)
		}
		c.FlushWindow()
		profiles = append(profiles, c.Snapshot())
	}
	if err := WriteTrace(&trace, profiles); err != nil {
		tb.Fatal(err)
	}
	if err := WriteWindows(&windows, ring.Records()); err != nil {
		tb.Fatal(err)
	}
	if err := exp.Flush(); err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(trace.String()), "\n")
	return []string{
		"",
		"   \n\t",
		trace.String(),
		windows.String(),
		exported.String(),
		"[" + strings.Join(lines, ",") + "]",
		"[\n  " + strings.Join(lines, ",\n  ") + "\n]\n",
		"[]", "[ ]",
		// brainy-loadgen's synthetic window, and the same line with a
		// key that matches "Count" only case-insensitively.
		`{"context":"loadgen/site3","kind":0,"instance":0,"window_seq":0,"window_start_op":0,"window_end_op":16,"stats":{"Count":[0,0,0,0,16,0,0,0,0,0]}}` + "\n",
		`{"context":"loadgen/site3","kind":0,"instance":0,"window_seq":0,"window_start_op":0,"window_end_op":16,"stats":{"count":[0,0,0,0,16,0,0,0,0,0]}}` + "\n",
		`{"context":"a","kind":1}` + "\n" + `{"context":"b","kind":2}` + "\n",
		`{"context":"a","kind":1}{"context":"b"}`,
		`[{"context":"a"},{"context":"b"}]`,
		`[{"context":"a"}] trailing`,
		`[{"context":"a"},]`,
		`[{"context":"a"}`,
		`{"context":"a","kind":1}` + "\n" + `{"context":"b","ki`,
		"null\n", `[null,{"kind":2}]`, `{"context":null,"kind":1}`, `{"stats":null}`,
		`{"kind":1,"kind":2}`, `{"stats":{"MaxLen":1},"stats":{"ElemSize":8}}`,
		`{"stats":{"Count":[1,2,3]}}`, `{"stats":{"Count":[0,0,0,0,0,0,0,0,0,0,1]}}`,
		`{"Context":"a","KIND":3}`, `{"context":"aé"}`, `{"context":"a\"b"}`, "{\"context\":\"caf\xc3\xa9\"}",
		"{\"context\":\"bad\xff\"}", `{"context":"<&>"}`,
		`{"kind":-0,"line_bytes":9223372036854775807,"instance":-9223372036854775808}`,
		`{"kind":9223372036854775808}`, `{"kind":1.0}`, `{"kind":1e2}`, `{"kind":01}`,
		`{"window_end_op":18446744073709551615}`, `{"window_end_op":18446744073709551616}`, `{"window_end_op":-0}`,
		`{"cycles":-0}`, `{"cycles":1e308,"hw":{"Cycles":1e309}}`, `{"cycles":1e-400}`, `{"cycles":123456789012345678901234567890}`,
		`{"cycles":0.1,"hw":{"Cycles":1.5E+3}}`, `{"cycles":1.}`, `{"cycles":.5}`, `{"cycles":-}`, `{"cycles":"1"}`,
		`{"order_aware":true}`, `{"order_aware":1}`, `{"order_aware":truex}`,
		`{"instance":1.5}`, `{"extra":[1,{"x":null}]}`,
		" [ { \"context\" : \"a\" , \"stats\" : { \"Count\" : [ 1 , 2 , 3 , 4 , 5 , 6 , 7 , 8 , 9 , 10 ] } } ] ",
		"\xef\xbb\xbf{}", "{}", "{} x", "1", `"x"`,
	}
}

var errStop = errors.New("stop")

// decodeAll runs dec over in and returns the records fn saw, as JSON (so
// -0 and 0 differ), and the error's text. After stop records fn answers
// errStop.
func decodeAll[T any](t *testing.T, dec func(io.Reader, func(*T) error) error, in string, stop int) (string, string) {
	var recs []T
	err := dec(strings.NewReader(in), func(v *T) error {
		if len(recs) == stop {
			return errStop
		}
		recs = append(recs, *v)
		return nil
	})
	msg := "<nil>"
	if err != nil {
		msg = err.Error()
	}
	b, merr := json.Marshal(recs)
	if merr != nil {
		t.Fatal(merr)
	}
	return string(b), msg
}

// differential fails when the public decoder and a plain encoding/json
// stream decode disagree on in: on a record, on the order, or on the
// verdict, with and without a callback that stops early.
func differential[T any](t *testing.T, in string, stop uint8, got, want func(io.Reader, func(*T) error) error) {
	for _, at := range []int{-1, int(stop % 8)} {
		gr, ge := decodeAll(t, got, in, at)
		wr, we := decodeAll(t, want, in, at)
		if ge != we {
			t.Fatalf("stop %d: error %q, encoding/json says %q", at, ge, we)
		}
		if gr != wr {
			t.Fatalf("stop %d: records\n%s\nencoding/json decodes\n%s", at, gr, wr)
		}
	}
}

// FuzzDecodeRecords holds DecodeRecords to a plain encoding/json stream
// decode, record by record and verdict by verdict: the fast parser must
// agree wherever it takes the body, and hand everything else on whole.
func FuzzDecodeRecords(f *testing.F) {
	for _, s := range wireSeeds(f) {
		f.Add(s, uint8(1))
	}
	f.Fuzz(func(t *testing.T, in string, stop uint8) {
		differential(t, in, stop, DecodeRecords, func(r io.Reader, fn func(*Profile) error) error {
			return decodeStream(r, "trace", fn)
		})
	})
}

// FuzzDecodeWindows is FuzzDecodeRecords for window records.
func FuzzDecodeWindows(f *testing.F) {
	for _, s := range wireSeeds(f) {
		f.Add(s, uint8(1))
	}
	f.Fuzz(func(t *testing.T, in string, stop uint8) {
		differential(t, in, stop, DecodeWindows, func(r io.Reader, fn func(*WindowRecord) error) error {
			return decodeStream(r, "window", fn)
		})
	})
}
