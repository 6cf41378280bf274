package davix

import (
	"reflect"
	"testing"
)

// optionFields is the committed size of the client's option surface: every
// field of Options doubles the configurations a test has to consider. A
// change that adds a field raises this count in the same diff, where review
// sees it; a change that removes one lowers it.
const optionFields = 24

// TestOptionFieldCount holds Options to its committed field count.
func TestOptionFieldCount(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	if n := typ.NumField(); n != optionFields {
		names := make([]string, n)
		for i := range names {
			names[i] = typ.Field(i).Name
		}
		t.Fatalf("Options has %d fields %v, committed count is %d; change optionFields in this diff if that is intended", n, names, optionFields)
	}
}
