package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeLines parses each JSON log line written to the builder.
func decodeLines(t *testing.T, out string) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

func TestLoggerJSONAndLevels(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelInfo)
	l.now = func() time.Time { return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC) }

	l.Debug("hidden")
	l.Info("listening", "addr", "127.0.0.1:8800", "inflight", 3)
	l.Error("boom", "err", errors.New("kaput"), "took", 250*time.Millisecond)

	recs := decodeLines(t, b.String())
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (debug filtered): %v", len(recs), recs)
	}
	info := recs[0]
	if info["level"] != "info" || info["msg"] != "listening" || info["addr"] != "127.0.0.1:8800" {
		t.Errorf("info record = %v", info)
	}
	if info["ts"] != "2026-08-05T12:00:00Z" {
		t.Errorf("ts = %v", info["ts"])
	}
	if info["inflight"] != float64(3) {
		t.Errorf("inflight = %v (%T)", info["inflight"], info["inflight"])
	}
	errRec := recs[1]
	if errRec["err"] != "kaput" {
		t.Errorf("error value not stringified: %v", errRec["err"])
	}
	if errRec["took"] != "250ms" {
		t.Errorf("duration not stringified: %v", errRec["took"])
	}
}

func TestLoggerOddKeyPair(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelDebug)
	l.Debug("odd", "dangling")
	recs := decodeLines(t, b.String())
	if recs[0]["dangling"] != "!MISSING" {
		t.Errorf("dangling key = %v", recs[0]["dangling"])
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "bogus": LevelInfo,
	} {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var b lockedBuilder
	l := NewLogger(&b, LevelInfo)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Info("tick", "worker", n, "j", j)
			}
		}(i)
	}
	wg.Wait()
	recs := decodeLines(t, b.String())
	if len(recs) != 400 {
		t.Errorf("got %d records, want 400", len(recs))
	}
}

// lockedBuilder is a concurrency-safe strings.Builder stand-in; the logger
// serializes writes itself, but the test's final read needs a barrier too.
type lockedBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (lb *lockedBuilder) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Write(p)
}

func (lb *lockedBuilder) String() string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.String()
}

// referenceLine is the logger's line as it was built before the append
// encoder: the record as a map, json.Marshal, and an error line when
// the marshal fails. Log must reproduce it byte for byte.
func referenceLine(now time.Time, lv Level, msg string, kv ...any) string {
	rec := make(map[string]any, len(kv)/2+3)
	rec["ts"] = now.UTC().Format(time.RFC3339Nano)
	rec["level"] = lv.String()
	rec["msg"] = msg
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		if i+1 < len(kv) {
			rec[key] = referenceSafe(kv[i+1])
		} else {
			rec[key] = "!MISSING"
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		line = []byte(fmt.Sprintf(`{"level":%q,"msg":%q,"logError":%q}`, lv.String(), msg, err))
	}
	return string(line) + "\n"
}

// referenceSafe is the pre-encoder jsonSafe.
func referenceSafe(v any) any {
	switch x := v.(type) {
	case nil, bool, string,
		int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, json.Marshaler:
		return x
	case error:
		return x.Error()
	case time.Duration:
		return x.String()
	case fmt.Stringer:
		return x.String()
	default:
		if _, err := json.Marshal(x); err != nil {
			return fmt.Sprint(x)
		}
		return x
	}
}

// logLine returns what Log writes for one record at a fixed time.
func logLine(now time.Time, lv Level, msg string, kv ...any) string {
	var b strings.Builder
	l := NewLogger(&b, LevelDebug)
	l.now = func() time.Time { return now }
	l.Log(lv, msg, kv...)
	return b.String()
}

// checkLine fails the test when Log and the reference disagree.
func checkLine(t *testing.T, now time.Time, lv Level, msg string, kv ...any) {
	t.Helper()
	got, want := logLine(now, lv, msg, kv...), referenceLine(now, lv, msg, kv...)
	if got != want {
		t.Fatalf("Log(%q, %#v):\n got %s\nwant %s", msg, kv, got, want)
	}
}

// logTestNow has nanoseconds, so RFC3339Nano's trimming shows.
var logTestNow = time.Date(2026, 8, 5, 12, 0, 0, 120000000, time.UTC)

type plainStringer struct{ s string }

func (p plainStringer) String() string { return p.s }

type failingMarshaler struct{}

func (failingMarshaler) MarshalJSON() ([]byte, error) { return nil, errors.New("no") }

type spacedMarshaler struct{}

func (spacedMarshaler) MarshalJSON() ([]byte, error) {
	return []byte(`{ "a" : [1, 2], "h": "<&>" }`), nil
}

// marshalerError is both an error and a json.Marshaler; the Marshaler
// encoding wins.
type marshalerError struct{}

func (marshalerError) Error() string                { return "as error" }
func (marshalerError) MarshalJSON() ([]byte, error) { return []byte(`"as json"`), nil }

type logStruct struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

type namedInt int

func TestLogMatchesMarshalOnEdgeCases(t *testing.T) {
	tid := TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	var nilMarshaler *time.Time
	cases := [][]any{
		{},
		{"dangling"},
		{"a", 1, "b"},
		{"k", 1, "k", 2},                       // the last duplicate wins
		{"ts", "mine", "level", 7, "msg", nil}, // user keys override the record's
		{"msg", "x", "a", 1, "msg", "y"},
		{"html", "<script>&amp;</script>", "quote", `"\`},
		{"ctl", "a\x00b\x1fc\bd\fe\nf\rg\th\x7f"},
		{"bad", "\xff\xfe a\xc3", "trunc", "日本\xe6\x97"},
		{"sep", "line\u2028para\u2029end", "uni", "héllo ✓ 𝄞"},
		{"<k&>", 1, "\xffkey", 2, "\u2028", 3, "", 4},
		{"f1", 1e-6, "f2", 1e-7, "f3", 1e21, "f4", 1e20, "f5", 123456789.125, "f6", -0.0, "f7", 1.5e-300, "f8", -2.5e22},
		{"f32a", float32(1e-6), "f32b", float32(1e-7), "f32c", float32(1e21), "f32d", float32(3.1415927), "f32e", float32(1e20)},
		{"nan", math.NaN()},
		{"inf", math.Inf(-1), "ok", 1},
		{"f32nan", float32(math.NaN())},
		{"nanlost", math.NaN(), "nanlost", 1}, // an overwritten NaN is not encoded
		{"i8", int8(-8), "i16", int16(-16), "i32", int32(-32), "i64", int64(math.MinInt64)},
		{"u", uint(1), "u8", uint8(255), "u16", uint16(65535), "u32", uint32(1 << 31), "u64", uint64(math.MaxUint64)},
		{"t", true, "f", false, "nil", nil},
		{"err", errors.New("boom <x>"), "dur", 1500 * time.Millisecond, "str", plainStringer{"s\u2028"}},
		{"trace", tid, "zero", TraceID{}, "span", SpanID{1, 2, 3, 4, 5, 6, 7, 8}, "lvl", LevelWarn},
		{"time", time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC), "nilm", nilMarshaler},
		{"spaced", spacedMarshaler{}, "both", marshalerError{}},
		{"failing", failingMarshaler{}},
		{"failing", failingMarshaler{}, "failing", "replaced"},
		{"struct", logStruct{"a<b", 0.5}, "map", map[string]int{"z": 1, "a": 2}, "bytes", []byte("hi")},
		{"slice", []any{1, "x", nil}, "named", namedInt(3), "ptr", &logStruct{Name: "p"}},
		{"chan", make(chan int), "fn", func() {}},
		{"nested nan", logStruct{Score: math.NaN()}},
		{1, "int key", nil, "nil key", plainStringer{"sk"}, "stringer key", 2.5, "float key"},
		{"b", 1, "a", 2, "c", 3, "B", 4, "aa", 5, "a", 6},
	}
	for _, kv := range cases {
		checkLine(t, logTestNow, LevelInfo, "request", kv...)
	}
	checkLine(t, logTestNow, LevelError, "<msg>\u2028\xff", "k", "v")
	checkLine(t, time.Date(2026, 8, 5, 12, 0, 0, 0, time.FixedZone("X", 3600)), LevelWarn, "zone")

	// More pairs than Log keeps on its stack.
	var many []any
	for i := 0; i < 40; i++ {
		many = append(many, fmt.Sprintf("k%02d", 39-i), i)
	}
	checkLine(t, logTestNow, LevelDebug, "many", many...)
}

// TestLogMatchesMarshalOnRandomRecords is the differential test: random
// records over keys that collide, and values of every kind Log
// encodes itself, compared with the reference line.
func TestLogMatchesMarshalOnRandomRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	keys := []string{"ts", "level", "msg", "a", "b", "A", "<&>", "é", "\u2028", "\xff", "", "path", "path"}
	runes := []string{"a", "Z", " ", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\n", "\t", "\x7f", "é", "✓", "𝄞", "\u2028", "\u2029", "\xff", "\xc3", "\xe6\x97"}
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(runes[rng.Intn(len(runes))])
		}
		return b.String()
	}
	float := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Ldexp(rng.Float64(), rng.Intn(200)-100)
		case 1:
			return []float64{1e-6, 1e-7, 9.99999e-7, 1e21, 9.9999e20, 0, 1, -1e21, 0.1, 5e-324}[rng.Intn(10)]
		case 2:
			return -rng.ExpFloat64() * 1e-6
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		}
	}
	value := func() any {
		switch rng.Intn(16) {
		case 0:
			return str()
		case 1:
			return rng.Intn(2000) - 1000
		case 2:
			return rng.Int63() - rng.Int63()
		case 3:
			return rng.Uint64()
		case 4:
			return float()
		case 5:
			return float32(float())
		case 6:
			return rng.Intn(2) == 0
		case 7:
			return nil
		case 8:
			return errors.New(str())
		case 9:
			return time.Duration(rng.Int63n(1e12))
		case 10:
			return plainStringer{str()}
		case 11:
			return NewTraceID()
		case 12:
			return logStruct{str(), float()}
		case 13:
			return []any{int8(rng.Intn(100)), uint16(rng.Intn(100)), str()}
		case 14:
			if rng.Intn(20) == 0 {
				return math.NaN()
			}
			return int32(rng.Int31())
		default:
			return float64(rng.Intn(1000)) / 8
		}
	}
	for n := 0; n < 20000; n++ {
		var kv []any
		for i := rng.Intn(14); i > 0; i-- {
			if rng.Intn(4) == 0 {
				kv = append(kv, str())
			} else {
				kv = append(kv, keys[rng.Intn(len(keys))])
			}
			kv = append(kv, value())
		}
		if rng.Intn(10) == 0 {
			kv = append(kv, "odd")
		}
		checkLine(t, logTestNow, Level(rng.Intn(4)), str(), kv...)
	}
}

// FuzzLogLine holds Log to the reference encoder on arbitrary keys,
// strings and numbers.
func FuzzLogLine(f *testing.F) {
	f.Add("request", "site", "<a&b>", "k", 1.5, int64(3), true, false)
	f.Add("\u2028", "msg", "\xff\xfe", "ts", 1e-7, int64(-1), false, true)
	f.Add("", "", "", "", 1e21, int64(0), true, true)
	f.Fuzz(func(t *testing.T, msg, k1, v1, k2 string, fv float64, n int64, b, odd bool) {
		kv := []any{k1, v1, k2, fv, "n", n, k1, b, v1, k2, "f32", float32(fv)}
		if odd {
			kv = append(kv, k2)
		}
		checkLine(t, logTestNow, LevelInfo, msg, kv...)
	})
}

// TestLogAllocs: an access line costs at most one allocation beyond
// boxing its values at the call site.
func TestLogAllocs(t *testing.T) {
	l := NewLogger(io.Discard, LevelInfo)
	kv := []any{
		"method", "POST", "path", "/extract", "status", 200, "durMs", 0.412,
		"trace", NewTraceID(), "site", "www.amazon.example", "subtree", "html[1].body[1].table[2]",
		"separator", "tr", "objects", 10, "fromRule", true, "confidence", 0.8731,
	}
	l.Info("request", kv...) // fill the buffer pool
	if n := testing.AllocsPerRun(200, func() { l.Info("request", kv...) }); n > 1 {
		t.Errorf("Log of an access line: %v allocs, want <= 1", n)
	}
}
