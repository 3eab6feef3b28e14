package rules

import "testing"

func TestRuleValid(t *testing.T) {
	if (Rule{}).Valid() {
		t.Error("zero rule should be invalid")
	}
	if !(Rule{Site: "x", SubtreePath: "html[1].body[2].form[4]", Separator: "table"}).Valid() {
		t.Error("sample rule should be valid")
	}
}
