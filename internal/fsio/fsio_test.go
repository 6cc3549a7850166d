package fsio

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestWriteAtomicReplacesContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	for i := 0; i < 3; i++ {
		want := fmt.Sprintf("generation-%d", i)
		if err := WriteAtomic(path, func(f *os.File) error {
			_, err := f.WriteString(want)
			return err
		}); err != nil {
			t.Fatalf("WriteAtomic: %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if string(got) != want {
			t.Fatalf("content %q, want %q", got, want)
		}
	}
}

func TestWriteAtomicErrorLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	if err := os.WriteFile(path, []byte("original"), 0o644); err != nil {
		t.Fatal(err)
	}
	sentinel := fmt.Errorf("write exploded")
	err := WriteAtomic(path, func(f *os.File) error {
		f.WriteString("partial garbage")
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("error %v, want the write callback's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "original" {
		t.Fatalf("target after failed write: %q, %v; want original intact", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind after failed write", e.Name())
		}
	}
}

// TestWriteAtomicConcurrent hammers one path from many goroutines: the unique
// temp names mean the final file must be exactly one writer's complete
// payload, never an interleaving of two.
func TestWriteAtomicConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := strings.Repeat(fmt.Sprintf("writer-%d|", i), 4096)
			if err := WriteAtomic(path, func(f *os.File) error {
				_, err := f.WriteString(payload)
				return err
			}); err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	matched := false
	for i := 0; i < writers; i++ {
		if string(got) == strings.Repeat(fmt.Sprintf("writer-%d|", i), 4096) {
			matched = true
			break
		}
	}
	if !matched {
		t.Fatalf("final content is not any single writer's complete payload (len %d)", len(got))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

// assertRefused checks that WriteAtomic refuses path, never calls write,
// leaves path's node as it was and leaves no temp file behind.
func assertRefused(t *testing.T, path string) {
	t.Helper()
	before, err := os.Lstat(path)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	err = WriteAtomic(path, func(f *os.File) error {
		called = true
		_, err := f.WriteString("checkpoint")
		return err
	})
	if err == nil {
		t.Fatalf("WriteAtomic over %v succeeded, want an error", before.Mode().Type())
	}
	if called {
		t.Error("write callback ran for a refused target")
	}
	after, err := os.Lstat(path)
	if err != nil {
		t.Fatalf("target gone after refused write: %v", err)
	}
	if after.Mode() != before.Mode() || !os.SameFile(before, after) {
		t.Errorf("target replaced: mode %v -> %v", before.Mode(), after.Mode())
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

func TestWriteAtomicRefusesDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	assertRefused(t, path)
}
