package brmimark

import (
	"strings"
	"testing"
)

// FuzzDirective feeds arbitrary comment text to the directive grammar every
// analyzer and the generator share: it never panics; what it accepts is a
// brmi or brmivet name without a space and arguments without surrounding
// space; a space after the "//" is prose, never a directive; and an accepted
// pair written back as "//name args" parses to the same pair.
func FuzzDirective(f *testing.F) {
	for _, seed := range []string{
		"//brmi:remote",
		"//brmi:readonly",
		"//brmivet:ignore poolcheck buffer ownership moves to the frame writer",
		"//brmivet:ignore  unflushed   padded reason  ",
		"//brmivet:ignore",
		"// brmi:remote",
		"brmi:remote",
		"//brmi:remote\targs",
		"////brmi:remote",
		"//go:generate brmigen",
		"//",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, comment string) {
		name, args, ok := Directive(comment)
		if _, _, prose := Directive("// " + comment); prose {
			t.Fatalf("%q read as a directive", "// "+comment)
		}
		if !ok {
			if name != "" || args != "" {
				t.Fatalf("Directive(%q) refused but returned (%q, %q)", comment, name, args)
			}
			return
		}
		if !strings.HasPrefix(name, "brmi:") && !strings.HasPrefix(name, "brmivet:") {
			t.Fatalf("Directive(%q): name %q is not a brmi or brmivet name", comment, name)
		}
		if strings.Contains(name, " ") {
			t.Fatalf("Directive(%q): name %q contains a space", comment, name)
		}
		if args != strings.TrimSpace(args) {
			t.Fatalf("Directive(%q): args %q carry surrounding space", comment, args)
		}
		again := "//" + name + " " + args
		if name2, args2, ok2 := Directive(again); !ok2 || name2 != name || args2 != args {
			t.Fatalf("Directive(%q) = (%q, %q, %v), want (%q, %q, true)", again, name2, args2, ok2, name, args)
		}
	})
}
