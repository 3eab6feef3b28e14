package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/tagtree"
	"omini/internal/wrapgen"
)

// serveOne posts body to target on h and returns the answer.
func serveOne(h http.Handler, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return rec
}

// TestRecordsAnswersMatchUnreleased replays the corpus through /records
// of a server, whose requests run on pooled pages released once each
// answer is written, and through the farm of a twin server on pages
// nothing reuses, and holds each answer to the reference encoding of
// the twin's records: the first page of a site learns its rule and
// schema, the others replay and project under them. (The /extract
// answers get the same check from TestExtractResponseMatchesEncoder.)
func TestRecordsAnswersMatchUnreleased(t *testing.T) {
	quiet := obs.NewLogger(io.Discard, obs.LevelInfo)
	srv := New(Config{Stats: resilience.NewStats(), Logger: quiet})
	twin := New(Config{Stats: resilience.NewStats(), Logger: quiet})
	ctx := context.Background()
	answered := 0
	for _, spec := range corpus.AllSpecs() {
		for k := 0; k < 3; k++ {
			html := spec.Page(k).HTML
			rec := serveOne(srv, "/records?site="+url.QueryEscape(spec.Name), html)
			p := core.NewPage(html)
			res, _, err := twin.farm.Extract(ctx, spec.Name, p)
			if err == nil {
				var w *wrapgen.Wrapper
				w, res, err = twin.farm.Wrapper(ctx, spec.Name, p, res)
				if err == nil {
					a := recordsAnswer{site: spec.Name, fields: w.Fields, records: w.Project(res.Objects)}
					want, _, _ := a.appendJSON(nil, nil)
					if got := rec.Body.Bytes(); rec.Code != http.StatusOK || !bytes.Equal(got, want) {
						t.Fatalf("%s page %d: status %d\n got %s\nwant %s", spec.Name, k, rec.Code, got, want)
					}
					answered++
					continue
				}
			}
			if rec.Code == http.StatusOK {
				t.Fatalf("%s page %d: twin failed (%v), server answered 200", spec.Name, k, err)
			}
		}
	}
	if answered == 0 {
		t.Fatal("no /records answer to compare")
	}
}

// TestLearnedStateOutlivesPage learns a site's rule and signature from
// one /extract request and its record schema from a /records request
// of the same page, each page released and zeroed once it is answered,
// then serves other sites so the pool hands that memory to their pages,
// and holds what the first requests left behind to a twin that learned
// from a page nothing reuses: the cached rule, its signature, the
// schema, and the learning request's access-log line, which is written
// after its page is released.
func TestLearnedStateOutlivesPage(t *testing.T) {
	var log bytes.Buffer
	srv := New(Config{Stats: resilience.NewStats(), Logger: obs.NewLogger(&log, obs.LevelInfo)})
	twin := New(Config{Stats: resilience.NewStats(), Logger: obs.NewLogger(io.Discard, obs.LevelInfo)})
	ctx := context.Background()
	specs := corpus.AllSpecs()
	site, html := specs[0].Name, specs[0].Page(0).HTML

	for _, path := range []string{"/extract", "/records"} {
		if rec := serveOne(srv, path+"?site="+url.QueryEscape(site), html); rec.Code != http.StatusOK {
			t.Fatalf("learning %s request: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	first, _, _ := bytes.Cut(log.Bytes(), []byte("\n"))
	var line struct{ Site, Subtree, Separator string }
	if err := json.Unmarshal(first, &line); err != nil {
		t.Fatalf("access-log line %q: %v", first, err)
	}
	for _, spec := range specs[1:8] {
		for k := 0; k < 2; k++ {
			serveOne(srv, "/records?site="+url.QueryEscape(spec.Name), spec.Page(k).HTML)
		}
	}

	p := core.NewPage(html)
	res, _, err := twin.farm.Extract(ctx, site, p)
	if err != nil {
		t.Fatal(err)
	}
	wantSchema, _, err := twin.farm.Wrapper(ctx, site, p, res)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := srv.farm.Get(site)
	want, _ := twin.farm.Get(site)
	if got.SubtreePath != want.SubtreePath || got.Separator != want.Separator || got.Version != want.Version {
		t.Errorf("rule %+v, learned from an unreleased page %+v", got, want)
	}
	if line.Site != site || line.Subtree != want.SubtreePath || line.Separator != want.Separator {
		t.Errorf("access-log line %+v, want site %q subtree %q separator %q", line, site, want.SubtreePath, want.Separator)
	}
	if got, want := signatureOf(srv, site), signatureOf(twin, site); len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("signature %v, learned from an unreleased page %v", got, want)
	}
	// A replay of another page projects under the cached schema.
	q := core.NewPage(specs[0].Page(1).HTML)
	res, _, err = srv.farm.Extract(ctx, site, q)
	if err != nil {
		t.Fatal(err)
	}
	gotSchema, _, err := srv.farm.Wrapper(ctx, site, q, res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSchema.Fields, wantSchema.Fields) {
		t.Errorf("schema %+v, learned from an unreleased page %+v", gotSchema.Fields, wantSchema.Fields)
	}
}

// signatureOf returns the training signature of the server's rule for
// site.
func signatureOf(s *Server, site string) tagtree.Signature {
	for _, r := range s.farm.Rules() {
		if r.Site == site {
			return r.Signature
		}
	}
	return nil
}
