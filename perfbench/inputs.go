package main

import (
	"fmt"
	"hash/fnv"

	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/tagtree"
	"omini/internal/wrapgen"
)

// Pages per site. Both pools are made from every corpus site spec, so
// every seed sends the same mix of layouts and page sizes; the seed
// changes the site names, and with them every page's content.
const (
	hotPages  = 16 // pages generated per hot site
	tailPages = 8  // pages generated per long-tail source site
)

// expect is what a correct /extract response carries for one page: the
// chosen subtree and separator, and the objects, fingerprinted.
type expect struct {
	subtree   string
	separator string
	objects   int
	texts     uint64
}

// page is one request body with its reference outputs.
type page struct {
	// site is the hot site the page belongs to; empty for long-tail
	// pages, whose site name is minted per request.
	site string
	html string
	// slow is the full-discovery result; fast is the replay of the
	// site's warm-page rule (hot pages only).
	slow, fast expect
}

// inputs are the pages a run sends, made from the seed alone.
type inputs struct {
	warm []*page // one page per hot site, sent during set-up
	hot  []*page // hot-site pages whose replay is stable
	tail []*page // pages sent under never-seen site names
}

// buildInputs generates the pages from the sitegen corpus specs and
// computes each page's reference outputs offline with internal/core.
//
// A hot page enters the pool only when the rule learned from its site's
// warm page replays on it and its drift score stays under the farm's
// threshold: then neither a rule mismatch nor the drift sampler can
// relearn the rule mid-run, and every hot response has one right
// answer. Pages on which discovery fails are left out, so no request is
// expected to fail.
func buildInputs(seed int64) (*inputs, error) {
	ex := core.New(core.Options{})
	specs := corpus.AllSpecs()
	in := &inputs{}
	for _, spec := range specs {
		spec.Name = fmt.Sprintf("h%d.%s", seed, spec.Name)
		warm := spec.Page(0)
		res, err := ex.Extract(warm.HTML)
		if err != nil {
			return nil, fmt.Errorf("warm page of %s: %w", spec.Name, err)
		}
		rule := res.Rule(spec.Name)
		sig := tagtree.PathSignature(res.Tree)
		in.warm = append(in.warm, &page{site: spec.Name, html: warm.HTML, slow: expectOf(res)})
		for k := 0; k < hotPages; k++ {
			html := spec.Page(k).HTML
			slow, err := ex.Extract(html)
			if err != nil {
				continue
			}
			fast, err := ex.ExtractWithRule(html, rule)
			if err != nil || wrapgen.DriftScore(sig, fast.Tree) > wrapgen.DefaultDriftThreshold {
				continue
			}
			in.hot = append(in.hot, &page{site: spec.Name, html: html, slow: expectOf(slow), fast: expectOf(fast)})
		}
	}
	for _, spec := range specs {
		spec.Name = fmt.Sprintf("t%d.%s", seed, spec.Name)
		for k := 0; k < tailPages; k++ {
			html := spec.Page(k).HTML
			res, err := ex.Extract(html)
			if err != nil {
				continue
			}
			in.tail = append(in.tail, &page{html: html, slow: expectOf(res)})
		}
	}
	if len(in.hot) == 0 || len(in.tail) == 0 {
		return nil, fmt.Errorf("seed %d yields no usable pages", seed)
	}
	return in, nil
}

func expectOf(res *core.Result) expect {
	texts := make([]string, len(res.Objects))
	for i, o := range res.Objects {
		texts[i] = o.Text()
	}
	return expect{subtree: res.SubtreePath, separator: res.Separator, objects: len(texts), texts: fingerprint(texts)}
}

// fingerprint hashes object texts in order.
func fingerprint(texts []string) uint64 {
	h := fnv.New64a()
	for _, t := range texts {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
