package ruledist

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"omini/internal/farm"
	"omini/internal/resilience"
	"omini/internal/rules"
	"omini/internal/serve"
	"omini/internal/tagtree"
)

// syncRules is how many rules one round of BenchmarkRuledistSync
// pulls.
const syncRules = 16

// BenchmarkRuledistSync measures one anti-entropy round over loopback:
// a replicator polls a peer node's /rulesz digest, finds syncRules of
// the peer's rules newer than its own, pulls them in one filtered
// snapshot and merges them into its farm. Before each round, outside
// the timer, the peer relearns every rule (one version bump each, as a
// drift relearn makes), so every round transfers all of them.
func BenchmarkRuledistSync(b *testing.B) {
	bump, round := syncPair(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bump()
		b.StartTimer()
		if err := round(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// syncPair starts a peer node holding syncRules rules and a replicator
// with an empty farm aimed at it. bump relearns the peer's rules;
// round runs one sync round and fails unless the local farm then holds
// every rule at the peer's version.
func syncPair(tb testing.TB) (bump func(), round func(context.Context) error) {
	tb.Helper()
	peer := serve.New(serve.Config{Stats: resilience.NewStats(), Logger: quietLogger()})
	ts := httptest.NewServer(peer)
	tb.Cleanup(ts.Close)
	local, err := farm.New(farm.Config{Stats: resilience.NewStats(), Logger: quietLogger()})
	if err != nil {
		tb.Fatal(err)
	}
	r, err := New(Config{
		Self:     "self",
		Peers:    map[string]string{"peer": ts.URL},
		Farm:     local,
		Interval: -1,
		Stats:    resilience.NewStats(),
		Logger:   quietLogger(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	sites := make([]string, syncRules)
	for i := range sites {
		sites[i] = fmt.Sprintf("sync-%02d.example", i)
	}
	sig := tagtree.Signature{"html": 1, "html.body": 1, "html.body.ul": 1, "html.body.ul.li": 12}
	bump = func() {
		for _, site := range sites {
			peer.Farm().Put(rules.Rule{Site: site, SubtreePath: "html[1].body[1].ul[1]", Separator: "li"}, sig)
		}
	}
	round = func(ctx context.Context) error {
		if err := r.SyncAll(ctx); err != nil {
			return err
		}
		for _, site := range sites {
			want, _ := peer.Farm().Get(site)
			if got, ok := local.Get(site); !ok || got.Version != want.Version {
				return fmt.Errorf("%s: local version %d, peer %d", site, got.Version, want.Version)
			}
		}
		return nil
	}
	return bump, round
}
