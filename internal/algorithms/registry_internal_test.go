package algorithms

import (
	"strings"
	"testing"
)

// TestNamesPlottingOrder pins the registry table without importing any
// algorithm package: the five built-ins appear in the paper's plotting
// order (Fig. 9 legends), names are unique and stay out of the MsgSuffix
// variant namespace, and the variant resolves to its base entry.
func TestNamesPlottingOrder(t *testing.T) {
	want := "ring,dbtree,2d-ring,hdrm,multitree"
	got := Names()
	if strings.Join(got, ",") != want {
		t.Fatalf("Names() = %v, want %s", got, want)
	}
	seen := map[string]bool{}
	for _, name := range got {
		if seen[name] {
			t.Errorf("%q listed twice", name)
		}
		seen[name] = true
		if strings.HasSuffix(name, MsgSuffix) {
			t.Errorf("%q collides with the %s variant namespace", name, MsgSuffix)
		}
	}
	spec, msg, err := Resolve("multitree" + MsgSuffix)
	if err != nil || !msg || spec.Name != "multitree" {
		t.Fatalf("Resolve(multitree%s) = %q, %v, %v", MsgSuffix, spec.Name, msg, err)
	}
}
