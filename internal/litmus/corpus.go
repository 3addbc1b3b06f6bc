package litmus

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// The corpus loader: the one way the command-line tools and campaign
// specs turn "the built-in suite" or a list of files and directories
// into tests.

// Builtin returns the built-in corpus: the Table II suite in suite order
// followed by the non-convertible examples.
func Builtin() []*Test {
	nc := NonConvertible()
	tests := make([]*Test, 0, len(suite)+len(nc))
	for _, e := range suite {
		tests = append(tests, e.Test)
	}
	return append(tests, nc...)
}

// ExpandPaths expands files and directories to the test files they
// name. A file names itself, whatever its suffix; a directory names
// every .litmus file beneath it, recursively, in lexical order. The
// arguments keep their order.
func ExpandPaths(paths ...string) ([]string, error) {
	var files []string
	for _, path := range paths {
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, path)
			continue
		}
		err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".litmus") {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

// ParseFile reads and parses one test file. Parse errors carry their
// "litmus: line N:" position but not the path, so a caller that labels
// findings by path does not repeat it.
func ParseFile(path string) (*Test, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(string(src))
}

// LoadPaths parses every test file that ExpandPaths names, in its
// order. The first unreadable or malformed file fails the load; a parse
// error is prefixed with the file's path.
func LoadPaths(paths ...string) ([]*Test, error) {
	files, err := ExpandPaths(paths...)
	if err != nil {
		return nil, err
	}
	tests := make([]*Test, 0, len(files))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		t, err := Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		tests = append(tests, t)
	}
	return tests, nil
}
