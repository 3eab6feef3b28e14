package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"omini/internal/corpus"
	"omini/internal/extract"
	"omini/internal/nav"
	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/tagtree"
)

// objectResponse is the /extract payload as the struct encoding/json
// wrote before the append encoder; the tests decode answers into it,
// and the differential tests hold appendJSON to its Encode byte for
// byte.
type objectResponse struct {
	Site        string  `json:"site,omitempty"`
	SubtreePath string  `json:"subtreePath"`
	Separator   string  `json:"separator"`
	Confidence  float64 `json:"confidence"`
	FromRule    bool    `json:"fromRule"`
	// NextPage is the discovered next-result-page link, when the page has
	// one — the crawl pointer an aggregator follows.
	NextPage string      `json:"nextPage,omitempty"`
	Objects  []objectDTO `json:"objects"`
	// Trace is the decision trace, present when the request asked for it
	// with ?trace=1.
	Trace *obs.DecisionTrace `json:"trace,omitempty"`
}

type objectDTO struct {
	Index int    `json:"index"`
	Text  string `json:"text"`
	Size  int    `json:"sizeBytes"`
}

// encodeReference is what handleExtract wrote before the append
// encoder: json.NewEncoder(w).Encode of the answer as objectResponse,
// nothing at all when Encode fails.
func encodeReference(a *extractAnswer) ([]byte, error) {
	resp := objectResponse{
		Site:        a.site,
		SubtreePath: a.subtreePath,
		Separator:   a.separator,
		Confidence:  a.confidence,
		FromRule:    a.fromRule,
		NextPage:    a.nextPage,
		Trace:       a.trace,
	}
	for i, o := range a.objects {
		resp.Objects = append(resp.Objects, objectDTO{Index: i + 1, Text: o.Text(), Size: o.Size()})
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// TestExtractResponseMatchesEncoder replays the corpus through a
// server and, request by request, through the farm of a twin server
// that sees the same requests, and holds each /extract body to the
// reference encoding of the twin's result: every corpus page on the
// slow path (its site's first page, and every request without ?site=)
// and the fast path, with and without site, with any next-page link,
// and with ?trace=1. The inline trace, whose timings differ between
// the twins, is taken from the answer itself.
func TestExtractResponseMatchesEncoder(t *testing.T) {
	quiet := obs.NewLogger(io.Discard, obs.LevelInfo)
	srv := New(Config{Stats: resilience.NewStats(), Logger: quiet})
	twin := New(Config{Stats: resilience.NewStats(), Logger: quiet})
	var seen struct{ fast, slow, noSite, next, trace, objects int }
	for _, spec := range corpus.AllSpecs() {
		for k := 0; k < 3; k++ {
			html := spec.Page(k).HTML
			for _, query := range []string{"site=" + url.QueryEscape(spec.Name), "", "trace=1&site=" + url.QueryEscape(spec.Name)} {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract?"+query, strings.NewReader(html)))
				q, _ := url.ParseQuery(query)
				site := q.Get("site")
				res, out, err := twin.farm.Extract(context.Background(), site, html)
				if err != nil {
					if rec.Code == http.StatusOK {
						t.Fatalf("%s page %d ?%s: twin failed (%v), server answered 200", spec.Name, k, query, err)
					}
					continue
				}
				if rec.Code != http.StatusOK {
					t.Fatalf("%s page %d ?%s: status %d, twin extracted", spec.Name, k, query, rec.Code)
				}
				if got := rec.Header().Get("Content-Type"); got != "application/json" {
					t.Errorf("Content-Type = %q", got)
				}
				a := extractAnswer{
					site:        site,
					subtreePath: res.SubtreePath,
					separator:   res.Separator,
					confidence:  res.Confidence(),
					fromRule:    out.FromRule,
					objects:     res.Objects,
				}
				if next, ok := nav.FindNext(res.Tree); ok {
					a.nextPage = next
					seen.next++
				}
				if obs.WantTrace(q) {
					var inline struct{ Trace *obs.DecisionTrace }
					if err := json.Unmarshal(rec.Body.Bytes(), &inline); err != nil || inline.Trace == nil {
						t.Fatalf("%s page %d ?%s: no inline trace (%v)", spec.Name, k, query, err)
					}
					a.trace = inline.Trace
					seen.trace++
				}
				want, err := encodeReference(&a)
				if err != nil {
					t.Fatal(err)
				}
				if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
					t.Fatalf("%s page %d ?%s:\n got %s\nwant %s", spec.Name, k, query, got, want)
				}
				switch {
				case site == "":
					seen.noSite++
				case out.FromRule:
					seen.fast++
				default:
					seen.slow++
				}
				seen.objects += len(res.Objects)
			}
		}
	}
	if seen.fast == 0 || seen.slow == 0 || seen.noSite == 0 || seen.next == 0 || seen.trace == 0 || seen.objects == 0 {
		t.Fatalf("coverage gap: %+v", seen)
	}
}

// TestAppendJSONMatchesEncoderOnEdgeCases covers what the corpus does
// not: escapes, invalid UTF-8, empty and nil object lists, extreme
// floats, a full decision trace, and a non-empty scratch buffer.
func TestAppendJSONMatchesEncoderOnEdgeCases(t *testing.T) {
	tr := &obs.DecisionTrace{
		TraceID:     obs.NewTraceID(),
		SubtreePath: "html[1].body[1]",
		SubtreeRanking: []obs.RankedItem{
			{Rank: 1, Key: "html[1].body[1]", Score: 0.5},
		},
		Separator:  "<tr>",
		Confidence: 1e-9,
		Objects:    2,
		Phases:     []obs.PhaseSample{{Name: "tidy", DurationNS: 12}},
		Charges:    map[string]int64{"tokens": 9, "nodes": 3},
	}
	cases := []extractAnswer{
		{},
		{objects: []extract.Object{}},
		{site: "a<b>&c", subtreePath: "x\u2028y\u2029", separator: "\x00\x1f\"\\", confidence: math.Copysign(0, -1), nextPage: "/p?a=1&b=<2>"},
		{confidence: 1e21, objects: textObjects("\xff\xfe ok", "  ", "\t<script>&amp;</script>\n")},
		{confidence: 1e-7, fromRule: true, trace: tr, objects: textObjects("é", "日本")},
		{confidence: math.MaxFloat64, objects: textObjects("", "")},
		{confidence: 5e-324},
		{confidence: math.NaN(), objects: textObjects("x")},
		{confidence: math.Inf(-1)},
		{trace: &obs.DecisionTrace{Confidence: math.Inf(1)}},
	}
	for i := range cases {
		checkAnswer(t, &cases[i], []byte("stale scratch"))
	}
}

// FuzzExtractResponse holds appendJSON to the reference encoder on
// arbitrary strings, floats and object lists.
func FuzzExtractResponse(f *testing.F) {
	f.Add("www.a.example", "html[1].body[1]", "tr", "/next", "one", "two", 0.75, true, uint8(2), false)
	f.Add("<&>", "\u2028", "\u2029", "\x7f\x00", "\xff\xfe", " \t ", 1e-7, false, uint8(0), true)
	f.Add("", "", "", "", "", "", 1e21, false, uint8(1), false)
	f.Add("s", "p", "b", "", "\x01", "\"\\", math.Inf(1), true, uint8(2), true)
	f.Add("s", "p", "b", "n", "x", "y", math.NaN(), false, uint8(2), false)
	f.Add("s", "p", "b", "n", "x", "y", -5e-324, false, uint8(2), true)
	f.Fuzz(func(t *testing.T, site, subtree, sep, next, text1, text2 string, conf float64, fromRule bool, objects uint8, withTrace bool) {
		a := extractAnswer{site: site, subtreePath: subtree, separator: sep, confidence: conf, fromRule: fromRule, nextPage: next}
		switch objects % 3 {
		case 1:
			a.objects = []extract.Object{}
		case 2:
			a.objects = textObjects(text1, text2, text1+" "+text2)
		}
		if withTrace {
			a.trace = &obs.DecisionTrace{SubtreePath: subtree, Separator: sep, Confidence: conf, Objects: len(a.objects)}
		}
		checkAnswer(t, &a, []byte(text2))
	})
}

// textObjects returns one object per text, each a single content node.
func textObjects(texts ...string) []extract.Object {
	out := make([]extract.Object, len(texts))
	for i, s := range texts {
		out[i] = extract.Object{Nodes: []*tagtree.Node{{Text: s}}}
	}
	return out
}

// checkAnswer fails the test when appendJSON disagrees with the
// reference: on the bytes, or on whether there are any.
func checkAnswer(t *testing.T, a *extractAnswer, scratch []byte) {
	t.Helper()
	want, err := encodeReference(a)
	got, _, ok := a.appendJSON([]byte("prefix"), scratch)
	if ok != (err == nil) {
		t.Fatalf("appendJSON ok=%v, Encode error %v", ok, err)
	}
	if !ok {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("appendJSON(%+v):\n got %s\nwant prefix%s", *a, got, want)
	}
}

// TestDecisionTraceOnlyWhenAsked: a sampled request builds its
// decision trace only when it asked with ?trace=1, on the slow path
// and on the fast path alike; /tracez needs only its spans.
func TestDecisionTraceOnlyWhenAsked(t *testing.T) {
	srv := New(Config{Stats: resilience.NewStats(), Logger: obs.NewLogger(io.Discard, obs.LevelInfo)})
	spec := corpus.AllSpecs()[0]
	for k, query := range []string{"site=s", "site=s", "site=s&trace=1", "trace=1"} {
		q, _ := url.ParseQuery(query)
		ctx, b := obs.Enter(context.Background(), httptest.NewRecorder(), http.Header{}, q, phaseHandler, nil, nil, nil)
		if b.TraceID().IsZero() {
			t.Fatalf("request %d ?%s: not sampled", k, query)
		}
		res, fromRule, err := srv.extract(ctx, q.Get("site"), spec.Page(k).HTML)
		if err != nil {
			t.Fatalf("request %d ?%s: %v", k, query, err)
		}
		if got, want := res.Trace != nil, obs.WantTrace(q); got != want {
			t.Errorf("request %d ?%s (fromRule %v): decision trace built %v, want %v", k, query, fromRule, got, want)
		}
		if td := b.End(); td == nil || len(td.Spans) == 0 || len(td.Charges) == 0 {
			t.Errorf("request %d ?%s: sampled trace lacks spans or charges: %+v", k, query, td)
		}
	}
}
