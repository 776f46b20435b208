//go:build unix

package experiments

import (
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestFIFOTraceMaterializes: streaming reads the log twice, which a
// FIFO cannot serve, so the faithful replay of a FIFO-fed trace keeps
// the materialized path. The choice comes from the file's mode alone:
// opening the FIFO would block with no writer on the other end.
func TestFIFOTraceMaterializes(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "log.swf")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	streams := make(chan bool, 1)
	go func() {
		_, ok := traceSpec(fifo).streamSource()
		streams <- ok
	}()
	select {
	case ok := <-streams:
		if ok {
			t.Fatal("a FIFO must not stream")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deciding the path opened the FIFO")
	}
}
