package equivref

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestDedupDoesNotMutateInput(t *testing.T) {
	in := []int{5, 3, 3, 1, 5}
	snapshot := append([]int(nil), in...)
	out := dedup(in)
	for i := range in {
		if in[i] != snapshot[i] {
			t.Fatalf("dedup mutated its input: %v (was %v)", in, snapshot)
		}
	}
	want := []int{1, 3, 5}
	if len(out) != len(want) {
		t.Fatalf("dedup = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("dedup = %v, want %v", out, want)
		}
	}
}

func TestDedupSharedClosureAliasing(t *testing.T) {
	// Two views into one backing array, as shared ε-closure slices are: the
	// dedup of one view must not reorder or compact through the other.
	backing := []int{9, 2, 7, 2, 4}
	a := backing[:3]
	b := backing[2:]
	_ = dedup(a)
	if b[0] != 7 || b[1] != 2 || b[2] != 4 {
		t.Fatalf("dedup of an aliased view corrupted the other view: %v", backing)
	}
}

// TestOnlyTestsImport: no non-test file of the module imports this package,
// so the reference checker can never creep onto a production path.
func TestOnlyTestsImport(t *testing.T) {
	const self = "repro/internal/equiv/equivref"
	root := filepath.Join("..", "..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				t.Errorf("%s imports %s, which only tests may import", path, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
