package main

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// fixtureAllow lists exactly the fixture's declarations that no fixture
// binary links once both arches are read.
const fixtureAllow = `
fixture/lib.Dead test-ref       # named only by a deduplicated data symbol
fixture/cmd/other.helper test-ref
fixture/lib.Root api
`

// TestCheckFixture runs the dump parser, the declaration walk and the
// allowlist check over testdata: src holds the sources, and the
// dumpdep_<arch>.txt files hold what the linker printed for them.
func TestCheckFixture(t *testing.T) {
	decls, err := declarations("testdata/src", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		arches    []string
		allow     string
		unreached []string // symbols
		problems  []string // one substring per expected problem
	}{
		{
			name:      "receivers, shapes, ABI suffixes and api callees resolve",
			arches:    arches,
			allow:     fixtureAllow,
			unreached: []string{"fixture/cmd/other.helper", "fixture/lib.Dead", "fixture/lib.Root"},
		},
		{
			name:      "an arm64-only file needs the arm64 pass",
			arches:    []string{"amd64"},
			allow:     fixtureAllow,
			unreached: []string{"fixture/cmd/other.helper", "fixture/lib.Dead", "fixture/lib.Root", "fixture/lib.armOnly"},
			problems:  []string{"lib/lib_arm64.go:4 fixture/lib.armOnly: unreached and not allowlisted"},
		},
		{
			name:      "main.helper of cmd/f0 does not mark cmd/other's helper",
			arches:    arches,
			allow:     "fixture/lib.Dead test-ref\nfixture/lib.Root api\n",
			unreached: []string{"fixture/cmd/other.helper", "fixture/lib.Dead", "fixture/lib.Root"},
			problems:  []string{"cmd/other/main.go:6 fixture/cmd/other.helper: unreached and not allowlisted"},
		},
		{
			name:      "a reached entry is stale",
			arches:    arches,
			allow:     fixtureAllow + "fixture/lib.(*P).Ptr test-ref\nfixture/lib.rootHelper test-ref\n",
			unreached: []string{"fixture/cmd/other.helper", "fixture/lib.Dead", "fixture/lib.Root"},
			problems: []string{
				"fixture/lib.(*P).Ptr: stale allowlist entry, reached",
				"fixture/lib.rootHelper: stale allowlist entry, reached",
			},
		},
		{
			name:      "an undeclared entry is stale",
			arches:    arches,
			allow:     fixtureAllow + "fixture/lib.Gone test-ref\n",
			unreached: []string{"fixture/cmd/other.helper", "fixture/lib.Dead", "fixture/lib.Root"},
			problems:  []string{"fixture/lib.Gone: stale allowlist entry, no longer declared"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			linked, api := map[string]bool{}, map[string]bool{}
			for _, arch := range tc.arches {
				f, err := os.Open("testdata/dumpdep_" + arch + ".txt")
				if err != nil {
					t.Fatal(err)
				}
				err = parseDumpdep(f, "fixture", "fixture/"+apiDir, linked, api)
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
			}
			allow, err := readAllowlist(strings.NewReader(tc.allow))
			if err != nil {
				t.Fatal(err)
			}
			unreached, problems := check(decls, linked, api, allow)
			var got []string
			for _, d := range unreached {
				got = append(got, d.sym)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(tc.unreached, " ") {
				t.Errorf("unreached %v, want %v", got, tc.unreached)
			}
			if len(problems) != len(tc.problems) {
				t.Fatalf("problems %q, want %d matching %q", problems, len(tc.problems), tc.problems)
			}
			for i, want := range tc.problems {
				if !strings.Contains(problems[i], want) {
					t.Errorf("problem %d = %q, want it to contain %q", i, problems[i], want)
				}
			}
		})
	}
}

func TestReadAllowlistRejects(t *testing.T) {
	for _, text := range []string{
		"fixture/lib.Dead\n",                    // no reason
		"fixture/lib.Dead unused\n",             // not one of the two reasons
		"fixture/lib.Dead deferred\n",           // a retired reason
		"fixture/lib.Dead api extra\n",          // trailing field
		"a.F api\nb.G test-ref\na.F test-ref\n", // listed twice
	} {
		if _, err := readAllowlist(strings.NewReader(text)); err == nil {
			t.Errorf("readAllowlist(%q) accepted it", text)
		}
	}
}
