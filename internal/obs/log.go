package obs

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Level orders log severities.
type Level int

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String names the level for output and flag parsing.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "unknown"
}

// ParseLevel maps a level name to its Level; unknown names select
// LevelInfo.
func ParseLevel(s string) Level {
	switch s {
	case "debug":
		return LevelDebug
	case "info":
		return LevelInfo
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	}
	return LevelInfo
}

// Logger is a leveled structured logger emitting one JSON object per line:
//
//	{"ts":"2026-08-05T12:00:00.000Z","level":"info","msg":"listening","addr":":8800"}
//
// Key/value pairs come as alternating arguments (slog-style); a trailing
// odd key gets the value "!MISSING". Safe for concurrent use. The zero
// Logger is unusable; construct with NewLogger.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	// now is overridable for tests.
	now func() time.Time
}

// NewLogger returns a logger writing records at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level, now: time.Now}
}

// defaultLogger guards the process-wide fallback.
var (
	defaultLoggerMu sync.RWMutex
	defaultLogger   = NewLogger(os.Stderr, LevelInfo)
)

// DefaultLogger returns the process-wide logger (stderr, info) unless
// SetDefaultLogger replaced it.
func DefaultLogger() *Logger {
	defaultLoggerMu.RLock()
	defer defaultLoggerMu.RUnlock()
	return defaultLogger
}

// SetDefaultLogger replaces the process-wide logger; nil is ignored.
func SetDefaultLogger(l *Logger) {
	if l == nil {
		return
	}
	defaultLoggerMu.Lock()
	defaultLogger = l
	defaultLoggerMu.Unlock()
}

// Enabled reports whether records at lv would be written.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= l.level
}

// Log writes one record at lv with alternating key/value pairs.
//
// The line is appended into a pooled buffer, field by field, and equals
// json.Marshal of the record as a map byte for byte: keys sorted, the
// last of duplicate keys wins (user "ts", "level" and "msg" included),
// strings escaped and floats formatted as encoding/json does them.
// Values it has no encoder for go through json.Marshal one at a time;
// a record json.Marshal would reject (a NaN, a failing MarshalJSON)
// takes the whole-record map path, which reports the error in the line.
func (l *Logger) Log(lv Level, msg string, kv ...any) {
	if !l.Enabled(lv) {
		return
	}
	var stack [24]logField
	fields := append(stack[:0],
		logField{key: "ts", kind: fieldTime},
		logField{key: "level", kind: fieldString, str: lv.String()},
		logField{key: "msg", kind: fieldString, str: msg})
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		f := logField{key: key, kind: fieldMissing}
		if i+1 < len(kv) {
			f.kind, f.val = fieldValue, kv[i+1]
		}
		fields = append(fields, f)
	}
	// Stable, so among equal keys the last written stays last.
	slices.SortStableFunc(fields, func(a, b logField) int { return strings.Compare(a.key, b.key) })

	bp := logBufs.Get().(*[]byte)
	line, ok := appendRecord((*bp)[:0], fields, l.now)
	if !ok {
		line = append(line[:0], l.mapLine(lv, msg, kv)...)
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, _ = l.w.Write(line)
	l.mu.Unlock()
	if cap(line) <= maxPooledLine {
		*bp = line
		logBufs.Put(bp)
	}
}

// logBufs pools the line buffers of Log; lines longer than
// maxPooledLine (a panic's stack, say) are left to the collector.
var logBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const maxPooledLine = 64 << 10

// fieldKind says where a record field's value comes from.
type fieldKind uint8

const (
	fieldTime    fieldKind = iota // the record's timestamp
	fieldString                   // str (level and msg)
	fieldValue                    // val, a caller's value
	fieldMissing                  // a dangling key: "!MISSING"
)

// logField is one key of a record with its not yet encoded value.
type logField struct {
	key  string
	kind fieldKind
	str  string
	val  any
}

// appendRecord appends the record's JSON object to b: fields sorted by
// key, and of each run of equal keys only the last. It reports false
// when a value has no JSON encoding, for the caller to fall back on
// the map path.
func appendRecord(b []byte, fields []logField, now func() time.Time) ([]byte, bool) {
	b = append(b, '{')
	open := len(b)
	for i, f := range fields {
		if i+1 < len(fields) && fields[i+1].key == f.key {
			continue // a later write of the same key wins
		}
		if len(b) > open {
			b = append(b, ',')
		}
		b = appendJSONString(b, f.key)
		b = append(b, ':')
		switch f.kind {
		case fieldTime:
			// RFC 3339 text needs no JSON escaping.
			b = append(b, '"')
			b = now().UTC().AppendFormat(b, time.RFC3339Nano)
			b = append(b, '"')
		case fieldString:
			b = appendJSONString(b, f.str)
		case fieldMissing:
			b = appendJSONString(b, "!MISSING")
		default:
			var ok bool
			if b, ok = appendJSONValue(b, f.val); !ok {
				return b, false
			}
		}
	}
	return append(b, '}'), true
}

// appendJSONValue appends v as the map path encodes jsonSafe(v). The
// cases keep jsonSafe's order: a json.Marshaler wins over error, and
// error over fmt.Stringer.
func appendJSONValue(b []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), true
	case bool:
		return strconv.AppendBool(b, x), true
	case string:
		return appendJSONString(b, x), true
	case int:
		return strconv.AppendInt(b, int64(x), 10), true
	case int8:
		return strconv.AppendInt(b, int64(x), 10), true
	case int16:
		return strconv.AppendInt(b, int64(x), 10), true
	case int32:
		return strconv.AppendInt(b, int64(x), 10), true
	case int64:
		return strconv.AppendInt(b, x, 10), true
	case uint:
		return strconv.AppendUint(b, uint64(x), 10), true
	case uint8:
		return strconv.AppendUint(b, uint64(x), 10), true
	case uint16:
		return strconv.AppendUint(b, uint64(x), 10), true
	case uint32:
		return strconv.AppendUint(b, uint64(x), 10), true
	case uint64:
		return strconv.AppendUint(b, x, 10), true
	case float32:
		return appendJSONFloat(b, float64(x), 32)
	case float64:
		return appendJSONFloat(b, x, 64)
	case json.Marshaler:
		return appendMarshaled(b, x)
	case error:
		return appendJSONString(b, x.Error()), true
	case TraceID:
		// TraceID.String, without the string.
		b = append(b, '"')
		b = hex.AppendEncode(b, x[:])
		return append(b, '"'), true
	case fmt.Stringer:
		return appendJSONString(b, x.String()), true
	default:
		if out, ok := appendMarshaled(b, x); ok {
			return out, true
		}
		return appendJSONString(b, fmt.Sprint(x)), true
	}
}

// appendMarshaled appends json.Marshal(v), reporting false when it
// fails.
func appendMarshaled(b []byte, v any) ([]byte, bool) {
	enc, err := json.Marshal(v)
	if err != nil {
		return b, false
	}
	return append(b, enc...), true
}

// appendJSONFloat appends f as encoding/json formats a float of the
// given bit size: like %g but with the exponent form only below 1e-6
// and from 1e21 on, and the exponent's leading zero trimmed. NaN and
// the infinities have no encoding.
func appendJSONFloat(b []byte, f float64, bits int) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendJSONString appends s as a JSON string the way encoding/json
// does: <, > and & escaped for HTML, control bytes as \u00XX (or their
// short escapes), U+2028 and U+2029 escaped, and each byte of invalid
// UTF-8 replaced by \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// mapLine is the whole-record path: the record as a map, marshaled by
// encoding/json, or a line naming the marshal error.
func (l *Logger) mapLine(lv Level, msg string, kv []any) []byte {
	rec := make(map[string]any, len(kv)/2+3)
	rec["ts"] = l.now().UTC().Format(time.RFC3339Nano)
	rec["level"] = lv.String()
	rec["msg"] = msg
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		if i+1 < len(kv) {
			rec[key] = jsonSafe(kv[i+1])
		} else {
			rec[key] = "!MISSING"
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		line = []byte(fmt.Sprintf(`{"level":%q,"msg":%q,"logError":%q}`, lv.String(), msg, err))
	}
	return line
}

// jsonSafe converts values json.Marshal would reject (errors, arbitrary
// types) into strings.
func jsonSafe(v any) any {
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

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, kv ...any) { l.Log(LevelDebug, msg, kv...) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...any) { l.Log(LevelInfo, msg, kv...) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.Log(LevelWarn, msg, kv...) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...any) { l.Log(LevelError, msg, kv...) }
