package main

import (
	"strings"
	"testing"
)

// FuzzParseShard: the shard-spec parser (the -shard flag and each line
// of a -shards file) never panics, and every spec it accepts has a
// trimmed, non-empty name and at least one target, none empty and none
// holding a separator.
func FuzzParseShard(f *testing.F) {
	for _, s := range []string{
		"a=http://h1:8080",
		"b=http://h1:8080,http://h2:8080",
		"c = /var/lib/bh/c http://replica:8080",
		"d=\t,, http://h:1 ,",
		" e =x",
		"=http://h:1",
		"f=",
		"no-equals",
		"g==h",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sh, err := parseShard(spec)
		if err != nil {
			return
		}
		if sh.name == "" || sh.name != strings.TrimSpace(sh.name) {
			t.Fatalf("%q: accepted name %q, want non-empty and trimmed", spec, sh.name)
		}
		if len(sh.targets) == 0 {
			t.Fatalf("%q: accepted with no target", spec)
		}
		for _, target := range sh.targets {
			if target == "" || strings.ContainsAny(target, ", \t") {
				t.Fatalf("%q: accepted target %q", spec, target)
			}
		}
	})
}
