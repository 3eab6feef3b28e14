package obs

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// testID returns a distinct non-zero trace ID for each n.
func testID(n int) TraceID {
	var id TraceID
	id[0] = 1
	binary.BigEndian.PutUint64(id[8:], uint64(n))
	return id
}

// sinkModel is the brute-force reference for TraceSink's eviction: it
// re-sorts every stored trace on each eviction, the way the sink did
// before it kept the keep-slow set incrementally, with ties going to
// the earlier-stored trace.
type sinkModel struct {
	capacity, keepSlow int
	traces             []*modelTrace // oldest first
	seq                int
}

type modelTrace struct {
	id     TraceID
	dur    int64
	status int
	seq    int
}

func (m *sinkModel) record(id TraceID, dur int64, status int) {
	for _, t := range m.traces {
		if t.id == id {
			// mergeTrace: the larger duration, the first non-zero status.
			if dur > t.dur {
				t.dur = dur
			}
			if t.status == 0 {
				t.status = status
			}
			return
		}
	}
	m.seq++
	m.traces = append(m.traces, &modelTrace{id: id, dur: dur, status: status, seq: m.seq})
	for len(m.traces) > m.capacity {
		slow := m.slowest()
		victim := -1
		for i, t := range m.traces {
			if t.status < 400 && !slow[t] {
				victim = i
				break
			}
		}
		if victim < 0 {
			for i, t := range m.traces {
				if !slow[t] {
					victim = i
					break
				}
			}
		}
		if victim < 0 {
			victim = 0
		}
		m.traces = append(m.traces[:victim], m.traces[victim+1:]...)
	}
}

func (m *sinkModel) slowest() map[*modelTrace]bool {
	all := append([]*modelTrace(nil), m.traces...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].dur != all[j].dur {
			return all[i].dur > all[j].dur
		}
		return all[i].seq < all[j].seq
	})
	if len(all) > m.keepSlow {
		all = all[:m.keepSlow]
	}
	out := make(map[*modelTrace]bool, len(all))
	for _, t := range all {
		out[t] = true
	}
	return out
}

// TestTraceSinkMatchesSortOracle drives random Record sequences — ties,
// errored traces, merges that raise DurationNS or fill in a status —
// through sinks of capacity 1..16 and checks the sink after every call:
// the bound holds, the pinned traces are the keepSlow slowest stored,
// errored traces outlive ordinary ones, and the stored traces are the
// model's.
func TestTraceSinkMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for capacity := 1; capacity <= 16; capacity++ {
		for round := 0; round < 20; round++ {
			sink := NewTraceSink(capacity)
			wantKeep := min(max(capacity/4, 4), capacity)
			if sink.keepSlow != wantKeep {
				t.Fatalf("capacity %d: keepSlow = %d, want %d", capacity, sink.keepSlow, wantKeep)
			}
			model := &sinkModel{capacity: capacity, keepSlow: wantKeep}
			ids := 2*capacity + 4 // a pool small enough that IDs recur: merges
			for step := 0; step < 200; step++ {
				id := testID(rng.Intn(ids))
				dur := int64(rng.Intn(8)) // few values: ties
				status := []int{0, 200, 200, 200, 503}[rng.Intn(5)]
				before := storedErrored(sink)
				sink.Record(&TraceData{TraceSummary: TraceSummary{TraceID: id, Status: status, DurationNS: dur}})
				model.record(id, dur, status)
				where := fmt.Sprintf("capacity %d round %d step %d", capacity, round, step)
				checkSinkInvariants(t, where, sink, before)
				checkSinkMatchesModel(t, where, sink, model)
				if t.Failed() {
					return
				}
			}
		}
	}
}

// storedErrored lists the errored traces in the sink.
func storedErrored(s *TraceSink) []TraceID {
	var out []TraceID
	for id, t := range s.entries {
		if t.errored() {
			out = append(out, id)
		}
	}
	return out
}

func checkSinkInvariants(t *testing.T, where string, s *TraceSink, erroredBefore []TraceID) {
	t.Helper()
	if s.Len() > s.Capacity() {
		t.Errorf("%s: Len %d > capacity %d", where, s.Len(), s.Capacity())
	}
	var all, pinned []int64
	ordinaryUnpinned := false
	for _, tr := range s.entries {
		all = append(all, tr.DurationNS)
		if tr.pinned {
			pinned = append(pinned, tr.DurationNS)
		} else if !tr.errored() {
			ordinaryUnpinned = true
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	sort.Slice(pinned, func(i, j int) bool { return pinned[i] > pinned[j] })
	if len(all) > s.keepSlow {
		all = all[:s.keepSlow]
	}
	if fmt.Sprint(pinned) != fmt.Sprint(all) {
		t.Errorf("%s: pinned durations %v, want the top %d stored %v", where, pinned, s.keepSlow, all)
	}
	if len(s.slow) != len(pinned) {
		t.Errorf("%s: keep-slow set holds %d traces, %d are pinned", where, len(s.slow), len(pinned))
	}
	for _, id := range erroredBefore {
		if s.entries[id] == nil && ordinaryUnpinned {
			t.Errorf("%s: errored trace %s evicted while an unpinned ordinary trace remains", where, id)
		}
	}
}

func checkSinkMatchesModel(t *testing.T, where string, s *TraceSink, m *sinkModel) {
	t.Helper()
	list := s.List()
	if len(list) != len(m.traces) {
		t.Errorf("%s: sink holds %d traces, model %d", where, len(list), len(m.traces))
		return
	}
	for i, got := range list {
		want := m.traces[len(m.traces)-1-i]
		if got.TraceID != want.id || got.DurationNS != want.dur || got.Status != want.status {
			t.Errorf("%s: List[%d] = %s/%d/%d, model %s/%d/%d", where, i,
				got.TraceID, got.DurationNS, got.Status, want.id, want.dur, want.status)
		}
	}
}

// TestTraceSinkConcurrentRecord records overlapping trace IDs (inserts
// and merges) from several goroutines while another lists and reads,
// then checks the keep-slow set; run it under -race.
func TestTraceSinkConcurrentRecord(t *testing.T) {
	sink := NewTraceSink(32)
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, row := range sink.List() {
				sink.Get(row.TraceID)
			}
		}
	}()
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				sink.Record(&TraceData{TraceSummary: TraceSummary{
					TraceID:    testID((i*7 + w) % 97),
					Status:     []int{200, 503}[i%9/8],
					DurationNS: int64((i * 31 * (w + 1)) % 1000),
				}})
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	checkSinkInvariants(t, "after concurrent records", sink, nil)
}

// BenchmarkTraceSinkRecord measures Record on a full sink of the default
// capacity: every call stores a new trace and evicts one. The traces
// are built outside the timed loop, so allocs/op is the sink's own.
func BenchmarkTraceSinkRecord(b *testing.B) {
	const ring = 4096
	rng := rand.New(rand.NewSource(1))
	mk := func(i int) *TraceData {
		status := 200
		if i%50 == 0 {
			status = 503
		}
		return &TraceData{TraceSummary: TraceSummary{
			TraceID: testID(i), Status: status, DurationNS: rng.Int63n(int64(1e9)),
		}}
	}
	fill := make([]*TraceData, DefaultTraceCapacity)
	for i := range fill {
		fill[i] = mk(i)
	}
	traces := make([]*TraceData, ring)
	for i := range traces {
		traces[i] = mk(len(fill) + i)
	}
	var sink *TraceSink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%ring == 0 {
			// A fresh full sink per pass over the ring, so every
			// Record stores a trace the sink has not seen.
			b.StopTimer()
			sink = NewTraceSink(DefaultTraceCapacity)
			for _, t := range fill {
				sink.Record(t)
			}
			b.StartTimer()
		}
		sink.Record(traces[i%ring])
	}
}
