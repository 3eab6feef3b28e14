package tagtree

import "strings"

// collapseSpace is Build's text collapse over a strings.Builder, for
// FuzzCollapseSpace: already-collapsed text comes back as is, any other
// text is collapsed into buf and returned as a substring of it.
func collapseSpace(s string, buf *strings.Builder) string {
	if isCollapsed(s) {
		return s
	}
	start := buf.Len()
	buf.Write(appendCollapsed(nil, s))
	return buf.String()[start:]
}
