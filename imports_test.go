package rapid

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportGraph pins the layering of the serving stack on the module's
// non-test sources: internal/serve is a leaf HTTP frontend that only the
// binaries (cmd/*), the root facade and serve's own subpackages may import,
// so shared types live in internal/engine; and internal/engine stays
// transport-neutral, importing no net/http.
func TestImportGraph(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch {
			case path == ".":
				return nil
			case path == "perfbench", d.Name() == "testdata", strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if imp == "repro/internal/serve" && !mayImportServe(dir) {
				t.Errorf("%s imports internal/serve; only cmd/*, the root package and internal/serve/... may", path)
			}
			if (dir == "internal/engine" || strings.HasPrefix(dir, "internal/engine/")) &&
				(imp == "net/http" || strings.HasPrefix(imp, "net/http/")) {
				t.Errorf("%s imports %s; internal/engine must stay transport-neutral", path, imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files scanned")
	}
}

func mayImportServe(dir string) bool {
	return dir == "." || strings.HasPrefix(dir, "cmd/") ||
		dir == "internal/serve" || strings.HasPrefix(dir, "internal/serve/")
}
