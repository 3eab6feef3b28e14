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

// Log writes one record at lv with alternating key/value pairs, each
// pair converted into a Field of the value kind; LogFields writes the
// same record from typed Fields.
//
// The line is appended into a pooled buffer, field by field, and equals
// json.Marshal of the record as a map byte for byte: keys sorted, the
// last of duplicate keys wins (user "ts", "level" and "msg" included),
// strings escaped and floats formatted as encoding/json does them.
// Values it has no encoder for go through json.Marshal one at a time.
// A record json.Marshal would reject (a NaN, a failing MarshalJSON) is
// written as a line naming the error json.Marshal reports for it.
func (l *Logger) Log(lv Level, msg string, kv ...any) {
	if !l.Enabled(lv) {
		return
	}
	var stack [24]Field
	fields := recordHead(stack[:0], lv, msg)
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		f := Field{key: key, kind: fieldMissing}
		if i+1 < len(kv) {
			f.kind, f.val = fieldValue, kv[i+1]
		}
		fields = append(fields, f)
	}
	l.write(lv, msg, fields)
}

// LogFields writes one record at lv with the given fields. It encodes
// exactly as Log does for the same keys and values, but a typed Field
// boxes nothing, so a caller that builds its fields in a local array
// pays no allocation per value.
func (l *Logger) LogFields(lv Level, msg string, fs ...Field) {
	if !l.Enabled(lv) {
		return
	}
	var stack [24]Field
	l.write(lv, msg, append(recordHead(stack[:0], lv, msg), fs...))
}

// recordHead appends the fields every record starts with.
func recordHead(fields []Field, lv Level, msg string) []Field {
	return append(fields,
		Field{key: "ts", kind: fieldTime},
		Field{key: "level", kind: fieldString, str: lv.String()},
		Field{key: "msg", kind: fieldString, str: msg})
}

// write encodes the record's fields, the record's head first, as one
// line.
func (l *Logger) write(lv Level, msg string, fields []Field) {
	// Stable, so among equal keys the last written stays last.
	slices.SortStableFunc(fields, func(a, b Field) int { return strings.Compare(a.key, b.key) })

	bp := logBufs.Get().(*[]byte)
	line, err := appendRecord((*bp)[:0], fields, l.now)
	if err != nil {
		line = fmt.Appendf(line[:0], `{"level":%q,"msg":%q,"logError":%q}`, lv.String(), msg, err)
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
	fieldString                   // str
	fieldInt                      // num, an int64
	fieldFloat                    // num, float64 bits
	fieldBool                     // num, 0 or 1
	fieldTraceID                  // id
	fieldValue                    // val, a caller's value
	fieldMissing                  // a dangling key: "!MISSING"
)

// Field is one key of a log record with its not yet encoded value.
// String, Int, Float64, Bool and TraceIDField build typed fields for
// LogFields; Log turns each of its key/value pairs into a field of the
// value kind.
type Field struct {
	key  string
	kind fieldKind
	str  string
	num  uint64
	id   TraceID
	val  any
}

// String returns a string field.
func String(key, v string) Field { return Field{key: key, kind: fieldString, str: v} }

// Int returns an integer field.
func Int(key string, v int) Field { return Field{key: key, kind: fieldInt, num: uint64(int64(v))} }

// Float64 returns a float field; it encodes as Log encodes a float64.
func Float64(key string, v float64) Field {
	return Field{key: key, kind: fieldFloat, num: math.Float64bits(v)}
}

// Bool returns a boolean field.
func Bool(key string, v bool) Field {
	f := Field{key: key, kind: fieldBool}
	if v {
		f.num = 1
	}
	return f
}

// TraceIDField returns a trace ID field: 32 hex digits, as Log writes a
// TraceID value.
func TraceIDField(key string, v TraceID) Field { return Field{key: key, kind: fieldTraceID, id: v} }

// appendRecord appends the record's JSON object to b: fields sorted by
// key, and of each run of equal keys only the last. When a value has
// no JSON encoding it returns json.Marshal's error for the first such
// value in key order, the error json.Marshal of the record as a map
// reports.
func appendRecord(b []byte, fields []Field, now func() time.Time) ([]byte, error) {
	b = append(b, '{')
	open := len(b)
	for i := range fields {
		f := &fields[i]
		if i+1 < len(fields) && fields[i+1].key == f.key {
			continue // a later write of the same key wins
		}
		if len(b) > open {
			b = append(b, ',')
		}
		b = AppendJSONString(b, f.key)
		b = append(b, ':')
		switch f.kind {
		case fieldTime:
			// RFC 3339 text needs no JSON escaping.
			b = append(b, '"')
			b = now().UTC().AppendFormat(b, time.RFC3339Nano)
			b = append(b, '"')
		case fieldString:
			b = AppendJSONString(b, f.str)
		case fieldInt:
			b = strconv.AppendInt(b, int64(f.num), 10)
		case fieldFloat:
			var ok bool
			if b, ok = AppendJSONFloat(b, math.Float64frombits(f.num), 64); !ok {
				return b, marshalError(math.Float64frombits(f.num))
			}
		case fieldBool:
			b = strconv.AppendBool(b, f.num != 0)
		case fieldTraceID:
			b = appendTraceIDHex(b, f.id)
		case fieldMissing:
			b = AppendJSONString(b, "!MISSING")
		default:
			var ok bool
			if b, ok = appendJSONValue(b, f.val); !ok {
				return b, marshalError(f.val)
			}
		}
	}
	return append(b, '}'), nil
}

// marshalError is json.Marshal's error for v, a value appendRecord
// found no JSON encoding for.
func marshalError(v any) error {
	_, err := json.Marshal(v)
	return err
}

// appendTraceIDHex appends TraceID.String as a JSON string, without
// the string.
func appendTraceIDHex(b []byte, id TraceID) []byte {
	b = append(b, '"')
	b = hex.AppendEncode(b, id[:])
	return append(b, '"')
}

// appendJSONValue appends v as json.Marshal encodes it, except that an
// error is written as its message, a fmt.Stringer as its string, and a
// value json.Marshal rejects (other than a float or a json.Marshaler)
// as its fmt.Sprint text. A json.Marshaler wins over error, and error
// over fmt.Stringer. It reports false for a NaN or infinite float and
// a failing json.Marshaler, which have no encoding.
func appendJSONValue(b []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), true
	case bool:
		return strconv.AppendBool(b, x), true
	case string:
		return AppendJSONString(b, x), true
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
		return AppendJSONFloat(b, float64(x), 32)
	case float64:
		return AppendJSONFloat(b, x, 64)
	case json.Marshaler:
		return appendMarshaled(b, x)
	case error:
		return AppendJSONString(b, x.Error()), true
	case TraceID:
		return appendTraceIDHex(b, x), true
	case fmt.Stringer:
		return AppendJSONString(b, x.String()), true
	default:
		if out, ok := appendMarshaled(b, x); ok {
			return out, true
		}
		return AppendJSONString(b, fmt.Sprint(x)), true
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

// AppendJSONFloat appends f as encoding/json formats a float of the
// given bit size: like %g but with the exponent form only below 1e-6
// and from 1e21 on, and the exponent's leading zero trimmed. NaN and
// the infinities have no encoding: it reports false for them.
func AppendJSONFloat(b []byte, f float64, bits int) ([]byte, bool) {
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

// AppendJSONString appends s, a string or a byte slice, as a JSON
// string the way encoding/json does: <, > and & escaped for HTML,
// control bytes as \u00XX (or their short escapes), U+2028 and U+2029
// escaped, and each byte of invalid UTF-8 replaced by \ufffd.
func AppendJSONString[S ~string | ~[]byte](b []byte, s S) []byte {
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
		// Decoding from a copy serves both string and []byte without
		// converting s.
		var head [utf8.UTFMax]byte
		r, size := utf8.DecodeRune(head[:copy(head[:], s[i:])])
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

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, kv ...any) { l.Log(LevelDebug, msg, kv...) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...any) { l.Log(LevelInfo, msg, kv...) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.Log(LevelWarn, msg, kv...) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...any) { l.Log(LevelError, msg, kv...) }
