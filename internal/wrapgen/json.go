package wrapgen

import (
	"slices"
	"strconv"

	"omini/internal/obs"
)

// AppendJSON appends f to b exactly as encoding/json encodes it under
// its struct tags: the fields in declaration order, strings
// HTML-escaped, attr omitted when empty, and support in encoding/json's
// float format. ok is false where Marshal would fail: a support that is
// not finite.
func (f *Field) AppendJSON(b []byte) (out []byte, ok bool) {
	b = append(b, `{"name":`...)
	b = obs.AppendJSONString(b, f.Name)
	b = append(b, `,"path":`...)
	b = obs.AppendJSONString(b, f.Path)
	if f.Attr != "" {
		b = append(b, `,"attr":`...)
		b = obs.AppendJSONString(b, f.Attr)
	}
	b = append(b, `,"occurrence":`...)
	b = strconv.AppendInt(b, int64(f.Occurrence), 10)
	b = append(b, `,"support":`...)
	if b, ok = obs.AppendJSONFloat(b, f.Support, 64); !ok {
		return b, false
	}
	return append(b, '}'), true
}

// AppendJSON appends r to b exactly as encoding/json encodes a
// map[string]string: null when nil, else its entries in sorted key
// order with keys and values HTML-escaped. keys is the sorting scratch,
// returned for reuse, so a record costs no allocation once it has
// grown to the widest record.
func (r Record) AppendJSON(b []byte, keys []string) (out []byte, scratch []string) {
	if r == nil {
		return append(b, "null"...), keys
	}
	keys = keys[:0]
	for k := range r {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = obs.AppendJSONString(b, k)
		b = append(b, ':')
		b = obs.AppendJSONString(b, r[k])
	}
	return append(b, '}'), keys
}
