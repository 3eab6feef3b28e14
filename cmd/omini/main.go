// Command omini extracts data objects from a web page — a URL, a local
// file, or standard input — using the fully automated Omini pipeline.
//
//	omini http://example.com/search?q=go
//	omini -json page.html
//	omini -tree page.html           # show the tag tree instead
//	omini -trace page.html          # JSON decision trace: why this result
//	omini -metrics page.html        # dump pipeline metrics to stderr
//	omini -rules rules.json -site www.example.com page.html
//
// With -rules, discovered extraction rules are cached per site and replayed
// on later runs (the paper's Section 6.6 fast path). The file is a wrapper
// farm snapshot, the format of ominiserve -rule-store, -rules and GET
// /rules, and the CLI keeps it whole: rule versions, training signatures
// and tombstones survive, and a rule the page no longer fits is relearned
// at the next version. With -trace, the run emits a JSON decision trace —
// subtree rankings, each separator heuristic's votes, the combined
// probabilities, and per-phase wall/alloc costs — explaining why the
// pipeline chose what it chose. With -metrics,
// the process's metrics registry is written to stderr in Prometheus text
// form after extraction.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"omini"
	"omini/internal/core"
	"omini/internal/farm"
	"omini/internal/fetch"
	"omini/internal/obs"
	"omini/internal/resilience"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "omini:", err)
		os.Exit(1)
	}
}

type objectJSON struct {
	Index int    `json:"index"`
	Text  string `json:"text"`
	Size  int    `json:"sizeBytes"`
}

type resultJSON struct {
	SubtreePath string             `json:"subtreePath"`
	Separator   string             `json:"separator"`
	Objects     []objectJSON       `json:"objects"`
	Trace       *obs.DecisionTrace `json:"trace,omitempty"`
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("omini", flag.ContinueOnError)
	var (
		asJSON    = fs.Bool("json", false, "emit objects as JSON")
		asTree    = fs.Bool("tree", false, "print the page's tag tree and exit")
		treeDepth = fs.Int("depth", 4, "tag tree depth for -tree")
		noRefine  = fs.Bool("no-refine", false, "skip Phase 3 refinement")
		rulesPath = fs.String("rules", "", "rule snapshot to read and update (the ominiserve -rule-store format)")
		site      = fs.String("site", "", "site name for the rule cache (default: derived from URL)")
		cacheDir  = fs.String("cache", "", "page cache directory for URL fetches")
		trace     = fs.Bool("trace", false, "emit a JSON decision trace explaining the extraction")
		metrics   = fs.Bool("metrics", false, "dump the metrics registry to stderr after extraction")
		maxBytes  = fs.Int64("max-bytes", 0, "max page size in bytes for fetch and extraction (0 = default, -1 = unlimited)")
		timeout   = fs.Duration("timeout", 0, "per-page extraction deadline (0 = default, -1s = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: omini [flags] <url | file | ->")
	}
	src := fs.Arg(0)
	html, derivedSite, err := readPage(src, *cacheDir, *maxBytes)
	if err != nil {
		return err
	}
	if *site == "" {
		*site = derivedSite
	}

	if *asTree {
		tree, err := omini.RenderTree(html, *treeDepth)
		if err != nil {
			return err
		}
		fmt.Fprint(w, tree)
		return nil
	}

	ex := core.New(core.Options{
		SkipRefine: *noRefine,
		Limits:     core.Limits{MaxInputBytes: int(*maxBytes), Deadline: *timeout},
	})

	ctx := context.Background()
	if *trace {
		// One-shot CLI run: alloc sampling is cheap here and makes the
		// per-phase costs complete.
		ctx, _ = obs.WithTraceRecorder(ctx, true)
	}
	res, err := extract(ctx, ex, html, *rulesPath, *site)
	if *metrics {
		defer func() { _ = obs.Default.WritePrometheus(os.Stderr) }()
	}
	if err != nil {
		return err
	}

	if *asJSON || *trace {
		out := resultJSON{SubtreePath: res.SubtreePath, Separator: res.Separator, Trace: res.Trace}
		for i, o := range res.Objects {
			out.Objects = append(out.Objects, objectJSON{Index: i + 1, Text: o.Text(), Size: o.Size()})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(w, "subtree:   %s\nseparator: %s\nobjects:   %d\n\n",
		res.SubtreePath, res.Separator, len(res.Objects))
	for i, o := range res.Objects {
		fmt.Fprintf(w, "[%2d] %s\n", i+1, o.Text())
	}
	return nil
}

// extract runs the pipeline on the page. With a rules file it runs
// through a wrapper farm persisted there: the site's cached rule is
// replayed, and a miss, or a rule the page no longer fits, is learned
// and saved. The context carries the trace recorder when -trace asked
// for one.
func extract(ctx context.Context, ex *core.Extractor, html, rulesPath, site string) (*core.Result, error) {
	if rulesPath == "" {
		return ex.ExtractContext(ctx, html)
	}
	f, err := farm.New(farm.Config{
		Extractor:       ex,
		SampleEvery:     -1,
		RelearnInterval: -1,
		StorePath:       rulesPath,
		Logger:          obs.NewLogger(io.Discard, obs.LevelError),
	})
	if err != nil {
		return nil, err
	}
	res, _, err := f.Extract(ctx, site, core.NewPage(html))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// readPage loads the page from a URL, a file, or stdin ("-"), returning the
// HTML and a site name derived from the source.
func readPage(src, cacheDir string, maxBytes int64) (html, site string, err error) {
	switch {
	case src == "-":
		body, err := io.ReadAll(os.Stdin)
		return string(body), "stdin", err
	case strings.HasPrefix(src, "http://"), strings.HasPrefix(src, "https://"):
		// Live-web fetches ride the resilience layer: transient upstream
		// failures are retried with backoff before the CLI gives up.
		f := fetch.Fetcher{CacheDir: cacheDir, MaxBytes: maxBytes, Retry: &resilience.RetryPolicy{}}
		ctx, cancel := fetch.WithTimeout(context.Background())
		defer cancel()
		body, err := f.Fetch(ctx, src)
		if err != nil {
			return "", "", err
		}
		host := strings.TrimPrefix(strings.TrimPrefix(src, "https://"), "http://")
		if i := strings.IndexByte(host, '/'); i >= 0 {
			host = host[:i]
		}
		return body, host, nil
	default:
		body, err := os.ReadFile(src)
		return string(body), src, err
	}
}
