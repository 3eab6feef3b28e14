package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/wrapgen"
)

// recordResponse is the /records payload as the struct encoding/json
// wrote before the append encoder; the tests decode answers into it,
// and the differential tests hold recordsAnswer.appendJSON to its
// Encode byte for byte.
type recordResponse struct {
	Site    string           `json:"site"`
	Fields  []wrapgen.Field  `json:"fields"`
	Records []wrapgen.Record `json:"records"`
}

// checkRecords fails the test when recordsAnswer.appendJSON disagrees
// with json.NewEncoder(w).Encode of the same answer as recordResponse:
// on the bytes, or on whether there are any.
func checkRecords(t *testing.T, a *recordsAnswer, scratch []string) {
	t.Helper()
	var want bytes.Buffer
	err := json.NewEncoder(&want).Encode(recordResponse{Site: a.site, Fields: a.fields, Records: a.records})
	got, _, ok := a.appendJSON([]byte("prefix"), scratch)
	if ok != (err == nil) {
		t.Fatalf("appendJSON ok=%v, Encode error %v", ok, err)
	}
	if !ok {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want.Bytes()) {
		t.Fatalf("appendJSON:\n got %s\nwant prefix%s", got, want.Bytes())
	}
}

// TestRecordsAnswerMatchesEncoder holds the /records encoder to
// encoding/json on every corpus site's schema projecting every corpus
// page: its own site's pages and every other site's.
func TestRecordsAnswerMatchesEncoder(t *testing.T) {
	ex := core.New(core.Options{})
	var wrappers []*wrapgen.Wrapper
	var pages []*core.Result
	for _, spec := range corpus.AllSpecs() {
		for k := 0; k < 3; k++ {
			res, err := ex.Extract(spec.Page(k).HTML)
			if err != nil {
				continue
			}
			pages = append(pages, res)
			if k == 0 {
				if w, err := wrapgen.LearnFromResult(spec.Name, res); err == nil {
					wrappers = append(wrappers, w)
				}
			}
		}
	}
	if len(wrappers) == 0 || len(pages) == 0 {
		t.Fatalf("%d schemas and %d pages", len(wrappers), len(pages))
	}
	keys := []string{"stale", "scratch"}
	records := 0
	for _, w := range wrappers {
		for _, res := range pages {
			a := recordsAnswer{site: w.Site, fields: w.Fields, records: w.Project(res.Objects)}
			checkRecords(t, &a, keys)
			records += len(a.records)
		}
	}
	if records == 0 {
		t.Fatal("no schema projected a record")
	}
}

// TestRecordsAnswerEdgeCases covers what the corpus does not: nil and
// empty fields, records and maps, escapes, invalid UTF-8, keys that
// sort by byte, extreme and non-finite supports.
func TestRecordsAnswerEdgeCases(t *testing.T) {
	cases := []recordsAnswer{
		{},
		{fields: []wrapgen.Field{}, records: []wrapgen.Record{}},
		{records: []wrapgen.Record{nil, {}, {"": ""}}},
		{
			site:   "a<b>&c ",
			fields: []wrapgen.Field{{Name: "t<1>", Path: "b.a", Attr: "href", Occurrence: 2, Support: 2.0 / 3}},
			records: []wrapgen.Record{
				{"title": "x & y", "Title": "<b>", "text.b1": "\xff\xfe", "é": " ", "a\x00": "\t\"\\"},
			},
		},
		{fields: []wrapgen.Field{{Name: "n", Support: 1e-7}, {Name: "m", Support: 1e21}, {Name: "z", Support: math.Copysign(0, -1)}}},
		{fields: []wrapgen.Field{{Name: "nan", Support: math.NaN()}}},
		{fields: []wrapgen.Field{{Name: "inf", Support: math.Inf(1)}}, records: []wrapgen.Record{{"k": "v"}}},
	}
	for i := range cases {
		checkRecords(t, &cases[i], nil)
	}
}

// FuzzRecordsAnswer holds the /records encoder to encoding/json on
// arbitrary names, keys and values.
func FuzzRecordsAnswer(f *testing.F) {
	f.Add("www.a.example", "title", "b.a", "href", "k1", "v1", "k2", "v2", 0.75, uint8(2))
	f.Add("<&>", " ", " ", "", "<k>", "a&b", "\xff", "\xfe\x00", 1e-7, uint8(3))
	f.Add("", "", "", "", "", "", "", "", math.NaN(), uint8(1))
	f.Add("s", "x", "", "src", "b", "\"\\", "a", "\x7f", 1e21, uint8(0))
	f.Fuzz(func(t *testing.T, site, name, path, attr, k1, v1, k2, v2 string, support float64, shape uint8) {
		a := recordsAnswer{site: site}
		if shape&1 != 0 {
			a.fields = []wrapgen.Field{{Name: name, Path: path, Attr: attr, Occurrence: int(shape), Support: support}}
		}
		switch shape % 4 {
		case 1:
			a.records = []wrapgen.Record{}
		case 2:
			a.records = []wrapgen.Record{{k1: v1, k2: v2}, nil}
		case 3:
			a.records = []wrapgen.Record{{k2: v1}, {k1: v2, name: path}}
		}
		checkRecords(t, &a, []string{k1})
	})
}
