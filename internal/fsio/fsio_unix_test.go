//go:build unix

package fsio

import (
	"path/filepath"
	"syscall"
	"testing"
)

// TestWriteAtomicRefusesFIFO stands in for device targets such as
// `kgtrain -out /dev/null`: a node that is not a regular file must survive.
func TestWriteAtomicRefusesFIFO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	if err := syscall.Mkfifo(path, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	assertRefused(t, path)
}
