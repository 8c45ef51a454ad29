package profile

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestWriterOutputTakesFastPath pins which path the repository's own bodies
// take: everything WriteTrace, WriteWindows, SnapshotExporter and
// brainy-loadgen emit parses on the fast path, so a field added to a record
// without a key in wire.go shows here; the loadgen window with its "Count"
// key spelled "count", which only case-folds, goes to encoding/json.
func TestWriterOutputTakesFastPath(t *testing.T) {
	seeds := wireSeeds(t)
	for i, in := range seeds[:10] {
		if _, ok := parseWire([]byte(in)); !ok {
			t.Errorf("seed %d takes the stream path:\n%s", i, in)
		}
	}
	if folded := seeds[10]; !strings.Contains(folded, `"count"`) {
		t.Fatalf("seed 10 is not the case-folded window: %s", folded)
	} else if _, ok := parseWire([]byte(folded)); ok {
		t.Errorf("a case-folded key takes the fast path: %s", folded)
	}
	// The writers' output keeps every field: one record per writer holds
	// no zero where the simulated run counted something.
	recs, _ := parseWire([]byte(seeds[2]))
	if len(recs) != 3 || recs[0].HW.Cycles == 0 || recs[0].Stats.TotalCalls() == 0 || !recs[1].OrderAware {
		t.Fatalf("fast path lost fields: %+v", recs)
	}
}

// TestFastPathRecordCap: a body of more records than the fast path holds
// is decoded by encoding/json, with every record delivered.
func TestFastPathRecordCap(t *testing.T) {
	body := strings.Repeat("{}\n", maxFastRecords+1)
	if _, ok := parseWire([]byte(body)); ok {
		t.Fatalf("fast path took %d records", maxFastRecords+1)
	}
	n := 0
	if err := DecodeRecords(strings.NewReader(body), func(*Profile) error { n++; return nil }); err != nil || n != maxFastRecords+1 {
		t.Fatalf("decoded %d records, err %v", n, err)
	}
}

// TestLongInputStreams: an input longer than the fast path takes is
// streamed, not read whole: the first record reaches the callback before
// more than maxFastBody+1 bytes are read, and every record arrives.
func TestLongInputStreams(t *testing.T) {
	line := `{"context":"long/site","kind":1,"instance":2,"window_end_op":8,"stats":{"MaxLen":3}}` + "\n"
	want := 3 * maxFastBody / len(line)
	data := strings.Repeat(line, want)
	r := &countingReader{data: data}
	n := 0
	err := DecodeRecords(r, func(p *Profile) error {
		if n == 0 && r.read > maxFastBody+1 {
			t.Fatalf("DecodeRecords read %d bytes before the first record", r.read)
		}
		n++
		return nil
	})
	if err != nil || n != want {
		t.Fatalf("DecodeRecords: %d of %d records, err %v", n, want, err)
	}
	r = &countingReader{data: data}
	n = 0
	err = DecodeWindows(r, func(w *WindowRecord) error {
		if n == 0 && r.read > maxFastBody+1 {
			t.Fatalf("DecodeWindows read %d bytes before the first record", r.read)
		}
		if w.Instance != 2 || w.EndOp != 8 {
			t.Fatalf("record %d: %+v", n, w)
		}
		n++
		return nil
	})
	if err != nil || n != want {
		t.Fatalf("DecodeWindows: %d of %d records, err %v", n, want, err)
	}
}

// countingReader yields data and counts the bytes read.
type countingReader struct {
	data string
	read int
}

func (c *countingReader) Read(p []byte) (int, error) {
	if c.data == "" {
		return 0, io.EOF
	}
	n := copy(p, c.data)
	c.data = c.data[n:]
	c.read += n
	return n, nil
}

// failingReader yields its data and then err, as http.MaxBytesReader does
// once a body passes its cap.
type failingReader struct {
	data string
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.data == "" {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestReadErrorReplaysToStreamDecoder: when the read fails, the records
// complete before the failure reach the callback and the error is the
// stream decoder's, wrapping the reader's; when a callback stops first,
// the read error never shows, as with a stream decoder that never read
// that far.
func TestReadErrorReplaysToStreamDecoder(t *testing.T) {
	cut := errors.New("cut")
	data := `{"context":"a"}` + "\n" + `{"context":"b"}` + "\n" + `{"context":"c","ki`
	var got []string
	err := DecodeRecords(&failingReader{data: data, err: cut}, func(p *Profile) error {
		got = append(got, p.Context)
		return nil
	})
	if !errors.Is(err, cut) || strings.Join(got, ",") != "a,b" {
		t.Fatalf("got %v, err %v; want a,b and the read error", got, err)
	}
	err = DecodeRecords(&failingReader{data: data, err: cut}, func(p *Profile) error {
		if p.Context == "b" {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Fatalf("err %v, want the callback's", err)
	}
	want := decodeStream(&failingReader{data: data, err: cut}, "trace", func(*Profile) error { return nil })
	err = DecodeRecords(&failingReader{data: data, err: cut}, func(*Profile) error { return nil })
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("err %v, stream decoder says %v", err, want)
	}
}
