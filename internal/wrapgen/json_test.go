package wrapgen

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestAppendJSONMatchesMarshal holds Field's and Record's append
// encoders to json.Marshal byte for byte, and to whether it fails.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	fields := []Field{
		{},
		{Name: "title", Path: "b.a", Attr: "href", Occurrence: 2, Support: 2.0 / 3},
		{Name: "t<1>&", Path: "\u2028", Support: 1e-7},
		{Name: "\xff", Support: 1e21},
		{Name: "z", Support: math.Copysign(0, -1)},
		{Name: "nan", Support: math.NaN()},
		{Name: "inf", Support: math.Inf(-1)},
	}
	for _, f := range fields {
		want, err := json.Marshal(f)
		got, ok := f.AppendJSON([]byte("x"))
		if ok != (err == nil) {
			t.Fatalf("%+v: AppendJSON ok=%v, Marshal error %v", f, ok, err)
		}
		if ok && !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("%+v:\n got %s\nwant x%s", f, got, want)
		}
	}
	records := []Record{
		nil,
		{},
		{"": ""},
		{"title": "x & y", "Title": "<b>", "text.b1": "\xff\xfe", "é": "\u2029", "a\x00": "\t\"\\"},
	}
	keys := []string{"stale"}
	for _, r := range records {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		got, keys = r.AppendJSON([]byte("x"), keys)
		if !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("%q:\n got %s\nwant x%s", r, got, want)
		}
	}
}
